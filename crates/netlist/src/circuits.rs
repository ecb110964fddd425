//! Structural circuit generators — textbook gate-level arithmetic.
//!
//! These are the functional units a synthesis tool would produce for an
//! integer pipeline, built from the small cell library of [`crate::gate`]:
//! ripple-carry adders (whose carry chains give the value-dependent critical
//! paths the paper's analysis exists to capture), a carry-save array
//! multiplier, a barrel shifter, a logic unit, comparators, mux trees,
//! one-hot decoders, reduction trees, and pseudo-random control clouds.
//!
//! All functions take buses LSB-first and return buses LSB-first.

use crate::builder::NetlistBuilder;
use crate::gate::{GateId, GateKind};
use crate::Result;

/// A full adder; returns `(sum, carry_out)`.
///
/// # Errors
///
/// Propagates builder errors (bad stage, dangling ids).
pub fn full_adder(
    b: &mut NetlistBuilder,
    stage: usize,
    a: GateId,
    bb: GateId,
    cin: GateId,
) -> Result<(GateId, GateId)> {
    let axb = b.gate(GateKind::Xor, &[a, bb], stage)?;
    let sum = b.gate(GateKind::Xor, &[axb, cin], stage)?;
    let t1 = b.gate(GateKind::And, &[axb, cin], stage)?;
    let t2 = b.gate(GateKind::And, &[a, bb], stage)?;
    let cout = b.gate(GateKind::Or, &[t1, t2], stage)?;
    Ok((sum, cout))
}

/// Ripple-carry adder over equal-width buses; returns `(sum, carry_out)`.
///
/// The carry chain is the canonical data-dependent long path: adding values
/// that propagate a carry through all bit positions activates a path ~2×
/// deeper than adding values with no carry propagation — exactly the
/// operand-value dependence of dynamic timing slack the paper models.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if the buses have different widths or are empty.
pub fn ripple_carry_adder(
    b: &mut NetlistBuilder,
    stage: usize,
    a: &[GateId],
    bb: &[GateId],
    cin: GateId,
) -> Result<(Vec<GateId>, GateId)> {
    assert_eq!(a.len(), bb.len(), "adder operand widths must match");
    assert!(!a.is_empty(), "adder width must be positive");
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = cin;
    for (&ai, &bi) in a.iter().zip(bb) {
        let (s, c) = full_adder(b, stage, ai, bi, carry)?;
        sum.push(s);
        carry = c;
    }
    Ok((sum, carry))
}

/// Two's-complement subtractor `a − b`; returns `(difference, carry_out)`
/// where `carry_out = 1` means no borrow (i.e. `a ≥ b` for unsigned
/// operands).
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if widths differ or are zero.
pub fn subtractor(
    b: &mut NetlistBuilder,
    stage: usize,
    a: &[GateId],
    bb: &[GateId],
) -> Result<(Vec<GateId>, GateId)> {
    let nb: Vec<GateId> = bb
        .iter()
        .map(|&x| b.gate(GateKind::Not, &[x], stage))
        .collect::<Result<_>>()?;
    let one = b.tie(true, stage)?;
    ripple_carry_adder(b, stage, a, &nb, one)
}

/// Bitwise logic unit: computes AND/OR/XOR/pass-B of two buses, selected by
/// two control bits: `op = (op1, op0)`: `00 → AND`, `01 → OR`, `10 → XOR`,
/// `11 → B`.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if widths differ or are zero.
pub fn logic_unit(
    b: &mut NetlistBuilder,
    stage: usize,
    a: &[GateId],
    bb: &[GateId],
    op0: GateId,
    op1: GateId,
) -> Result<Vec<GateId>> {
    assert_eq!(a.len(), bb.len(), "logic unit operand widths must match");
    let mut out = Vec::with_capacity(a.len());
    for (&ai, &bi) in a.iter().zip(bb) {
        let and = b.gate(GateKind::And, &[ai, bi], stage)?;
        let or = b.gate(GateKind::Or, &[ai, bi], stage)?;
        let xor = b.gate(GateKind::Xor, &[ai, bi], stage)?;
        // mux level 0 on op0: AND/OR and XOR/B.
        let m0 = b.gate(GateKind::Mux, &[op0, and, or], stage)?;
        let m1 = b.gate(GateKind::Mux, &[op0, xor, bi], stage)?;
        out.push(b.gate(GateKind::Mux, &[op1, m0, m1], stage)?);
    }
    Ok(out)
}

/// Logarithmic barrel shifter. Shifts `value` by the unsigned amount on
/// `amount` (one mux layer per amount bit). `right` selects direction
/// (0 = left); `arith` selects sign-filling for right shifts.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if `value` is empty or `amount` is wider than needed
/// (`amount.len() > ceil(log2(value.len())) + 1`).
pub fn barrel_shifter(
    b: &mut NetlistBuilder,
    stage: usize,
    value: &[GateId],
    amount: &[GateId],
    right: GateId,
    arith: GateId,
) -> Result<Vec<GateId>> {
    let w = value.len();
    assert!(w > 0, "shifter width must be positive");
    let max_bits = usize::BITS as usize - (w - 1).leading_zeros() as usize;
    assert!(
        amount.len() <= max_bits + 1,
        "amount bus wider than meaningful for width {w}"
    );
    let zero = b.tie(false, stage)?;
    let msb = value[w - 1]; // w > 0 asserted above
                            // Fill bit for right shifts: sign if arithmetic, else 0.
    let fill = b.gate(GateKind::Mux, &[arith, zero, msb], stage)?;
    // To share one shifter for both directions we reverse the bus for left
    // shifts, do a right shift, and reverse back.
    let mut cur: Vec<GateId> = Vec::with_capacity(w);
    for i in 0..w {
        // right ? value[i] : value[w-1-i]
        cur.push(b.gate(GateKind::Mux, &[right, value[w - 1 - i], value[i]], stage)?);
    }
    // For a left shift the vacated positions fill with 0, for arithmetic
    // right with sign: in reversed-domain both become "shift toward LSB with
    // the appropriate fill"; left shifts must fill with zero.
    let fill_eff = b.gate(GateKind::Mux, &[right, zero, fill], stage)?;
    for (layer, &abit) in amount.iter().enumerate() {
        let dist = 1usize << layer;
        let mut next = Vec::with_capacity(w);
        for i in 0..w {
            let shifted = if i + dist < w {
                cur[i + dist]
            } else {
                fill_eff
            };
            next.push(b.gate(GateKind::Mux, &[abit, cur[i], shifted], stage)?);
        }
        cur = next;
    }
    // Undo the reversal for left shifts.
    let mut out = Vec::with_capacity(w);
    for i in 0..w {
        out.push(b.gate(GateKind::Mux, &[right, cur[w - 1 - i], cur[i]], stage)?);
    }
    Ok(out)
}

/// Equality comparator: 1 iff the buses are bit-identical
/// (XOR column + NOR/OR reduction tree).
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if widths differ or are zero.
pub fn equality(
    b: &mut NetlistBuilder,
    stage: usize,
    a: &[GateId],
    bb: &[GateId],
) -> Result<GateId> {
    assert_eq!(a.len(), bb.len(), "comparator widths must match");
    let diffs: Vec<GateId> = a
        .iter()
        .zip(bb)
        .map(|(&x, &y)| b.gate(GateKind::Xor, &[x, y], stage))
        .collect::<Result<_>>()?;
    let any = reduce_tree(b, stage, &diffs, GateKind::Or)?;
    b.gate(GateKind::Not, &[any], stage)
}

/// Balanced reduction tree with a 2-input associative gate kind.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if `xs` is empty or `kind` is not a 2-input gate.
pub fn reduce_tree(
    b: &mut NetlistBuilder,
    stage: usize,
    xs: &[GateId],
    kind: GateKind,
) -> Result<GateId> {
    assert!(!xs.is_empty(), "reduction of empty bus");
    assert_eq!(
        kind.fanin_count(),
        Some(2),
        "reduction needs a 2-input gate"
    );
    let mut level: Vec<GateId> = xs.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(b.gate(kind, &[pair[0], pair[1]], stage)?);
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    Ok(level[0])
}

/// Zero detector: 1 iff the whole bus is zero.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if the bus is empty.
pub fn zero_detect(b: &mut NetlistBuilder, stage: usize, xs: &[GateId]) -> Result<GateId> {
    let any = reduce_tree(b, stage, xs, GateKind::Or)?;
    b.gate(GateKind::Not, &[any], stage)
}

/// 2:1 bus multiplexer: `sel ? bv : av` per bit.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if widths differ.
pub fn mux2_bus(
    b: &mut NetlistBuilder,
    stage: usize,
    sel: GateId,
    av: &[GateId],
    bv: &[GateId],
) -> Result<Vec<GateId>> {
    assert_eq!(av.len(), bv.len(), "mux operand widths must match");
    av.iter()
        .zip(bv)
        .map(|(&a, &bb)| b.gate(GateKind::Mux, &[sel, a, bb], stage))
        .collect()
}

/// Selects among `2^sels.len()` equally wide buses with a layered mux tree.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics unless `inputs.len() == 2^sels.len()` and all widths match.
// Invariant: the assert fixes `inputs.len() = 2^sels ≥ 1`; each round halves
// the level, so exactly one bus remains at the end.
#[allow(clippy::expect_used)]
pub fn mux_tree(
    b: &mut NetlistBuilder,
    stage: usize,
    sels: &[GateId],
    inputs: &[Vec<GateId>],
) -> Result<Vec<GateId>> {
    assert_eq!(
        inputs.len(),
        1usize << sels.len(),
        "mux tree needs 2^sels inputs"
    );
    let mut level: Vec<Vec<GateId>> = inputs.to_vec();
    for &s in sels {
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks(2) {
            next.push(mux2_bus(b, stage, s, &pair[0], &pair[1])?);
        }
        level = next;
    }
    Ok(level.pop().expect("non-empty mux tree"))
}

/// One-hot decoder: `sel` (k bits) → `2^k` outputs, exactly one high.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if `sel` is empty or wider than 8 bits (256 outputs).
pub fn decoder(b: &mut NetlistBuilder, stage: usize, sel: &[GateId]) -> Result<Vec<GateId>> {
    assert!(
        !sel.is_empty() && sel.len() <= 8,
        "decoder select must be 1..=8 bits"
    );
    let nsel: Vec<GateId> = sel
        .iter()
        .map(|&s| b.gate(GateKind::Not, &[s], stage))
        .collect::<Result<_>>()?;
    let n = 1usize << sel.len();
    let mut outs = Vec::with_capacity(n);
    for code in 0..n {
        let terms: Vec<GateId> = (0..sel.len())
            .map(|bit| {
                if code >> bit & 1 == 1 {
                    sel[bit]
                } else {
                    nsel[bit]
                }
            })
            .collect();
        outs.push(reduce_tree(b, stage, &terms, GateKind::And)?);
    }
    Ok(outs)
}

/// Carry-save array multiplier producing the **low `a.len()` bits** of
/// `a × b` (the triangular low-product array; what a `mul` writing one
/// register needs). Depth is `O(width)` full-adder levels — roughly twice an
/// adder, matching the "multiplier is the slow unit" reality.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if widths differ or are zero.
pub fn array_multiplier_low(
    b: &mut NetlistBuilder,
    stage: usize,
    a: &[GateId],
    bb: &[GateId],
) -> Result<Vec<GateId>> {
    let w = a.len();
    assert_eq!(w, bb.len(), "multiplier operand widths must match");
    assert!(w > 0, "multiplier width must be positive");
    let zero = b.tie(false, stage)?;
    // acc holds the running sum bits for columns 0..w.
    let mut acc: Vec<GateId> = vec![zero; w];
    // carries propagated row to row, per column.
    let mut carries: Vec<GateId> = vec![zero; w];
    for (i, &bi) in bb.iter().enumerate() {
        // Partial product row i contributes to columns i..w.
        let mut new_acc = acc.clone();
        let mut new_carries = vec![zero; w];
        for col in i..w {
            let pp = b.gate(GateKind::And, &[a[col - i], bi], stage)?;
            let (s, c) = full_adder(b, stage, acc[col], pp, carries[col])?;
            new_acc[col] = s;
            if col + 1 < w {
                new_carries[col + 1] = c;
            }
        }
        acc = new_acc;
        carries = new_carries;
    }
    // Final carry resolution: one more ripple pass over remaining carries.
    let (sum, _cout) = ripple_carry_adder(b, stage, &acc, &carries, zero)?;
    Ok(sum)
}

/// A pseudo-random combinational cloud: `n_gates` random 2-input gates drawn
/// over the inputs and previously created cloud gates, returning the
/// `n_outputs` most recently created nets. Used to model control logic
/// (decode qualifiers, hazard trees, FSM next-state functions) whose precise
/// structure is irrelevant but whose *activity and depth statistics* matter.
///
/// Deterministic for a given `seed`.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if `inputs` is empty, `n_gates == 0`, or `n_outputs > n_gates`.
pub fn random_cloud(
    b: &mut NetlistBuilder,
    stage: usize,
    inputs: &[GateId],
    n_gates: usize,
    n_outputs: usize,
    seed: u64,
) -> Result<Vec<GateId>> {
    assert!(!inputs.is_empty(), "cloud needs inputs");
    assert!(n_gates > 0 && n_outputs <= n_gates, "bad cloud shape");
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    const KINDS: [GateKind; 6] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    let mut pool: Vec<GateId> = inputs.to_vec();
    let mut created = Vec::with_capacity(n_gates);
    for _ in 0..n_gates {
        let kind = KINDS[(next() % KINDS.len() as u64) as usize];
        // Bias toward recent gates to create depth, with ~40% taps back into
        // the primary inputs for wide fan-in cones.
        let pick = |r: u64, pool: &[GateId], inputs: &[GateId]| -> GateId {
            if r % 5 < 2 {
                inputs[(r / 5) as usize % inputs.len()]
            } else {
                let span = pool.len().min(24);
                pool[pool.len() - 1 - (r / 5) as usize % span]
            }
        };
        let x = pick(next(), &pool, inputs);
        let y = pick(next(), &pool, inputs);
        let g = b.gate(kind, &[x, y], stage)?;
        pool.push(g);
        created.push(g);
    }
    Ok(created[created.len() - n_outputs..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{EndpointClass, Netlist};
    use crate::sim::Simulator;

    /// Builds a 1-stage netlist computing `f(inputs)` into named FFs so we
    /// can simulate and read results. Returns the netlist.
    fn harness(
        widths: &[(&str, usize)],
        build: impl FnOnce(&mut NetlistBuilder, &[Vec<GateId>]) -> Vec<(String, Vec<GateId>)>,
    ) -> Netlist {
        let mut b = NetlistBuilder::new(1);
        let ins: Vec<Vec<GateId>> = widths
            .iter()
            .map(|(name, w)| b.input_bus(name, *w, 0).unwrap())
            .collect();
        let outs = build(&mut b, &ins);
        for (name, bus) in outs {
            let ffs = b
                .flip_flop_bus(&name, bus.len(), EndpointClass::Data, 0)
                .unwrap();
            for (ff, src) in ffs.iter().zip(&bus) {
                b.connect_ff_input(*ff, *src).unwrap();
            }
        }
        b.finish().unwrap()
    }

    /// Runs two cycles (drive, capture) and reads an output bank.
    fn eval(n: &Netlist, inputs: &[(&str, u64)], out: &str) -> u64 {
        let mut sim = Simulator::new(n);
        for (name, v) in inputs {
            sim.set_input_bus(name, *v).unwrap();
        }
        sim.step(); // propagate
        sim.step(); // capture into FFs
        sim.bus_value(out).unwrap()
    }

    #[test]
    fn adder_exhaustive_4bit() {
        let n = harness(&[("a", 4), ("b", 4)], |b, ins| {
            let zero = b.tie(false, 0).unwrap();
            let (sum, cout) = ripple_carry_adder(b, 0, &ins[0], &ins[1], zero).unwrap();
            vec![("sum".into(), sum), ("cout".into(), vec![cout])]
        });
        for a in 0..16u64 {
            for bb in 0..16u64 {
                let s = eval(&n, &[("a", a), ("b", bb)], "sum");
                let c = eval(&n, &[("a", a), ("b", bb)], "cout");
                assert_eq!(s, (a + bb) & 0xF, "{a}+{bb}");
                assert_eq!(c, (a + bb) >> 4, "{a}+{bb} carry");
            }
        }
    }

    #[test]
    fn adder_random_32bit() {
        let n = harness(&[("a", 32), ("b", 32)], |b, ins| {
            let zero = b.tie(false, 0).unwrap();
            let (sum, _) = ripple_carry_adder(b, 0, &ins[0], &ins[1], zero).unwrap();
            vec![("sum".into(), sum)]
        });
        let mut s = 0x1234_5678_u64;
        for _ in 0..50 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = s >> 16 & 0xFFFF_FFFF;
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let bb = s >> 16 & 0xFFFF_FFFF;
            assert_eq!(
                eval(&n, &[("a", a), ("b", bb)], "sum"),
                (a + bb) & 0xFFFF_FFFF
            );
        }
    }

    #[test]
    fn subtractor_semantics() {
        let n = harness(&[("a", 8), ("b", 8)], |b, ins| {
            let (diff, nb) = subtractor(b, 0, &ins[0], &ins[1]).unwrap();
            vec![("diff".into(), diff), ("noborrow".into(), vec![nb])]
        });
        for (a, bb) in [(5u64, 3u64), (3, 5), (200, 200), (255, 0), (0, 255)] {
            assert_eq!(
                eval(&n, &[("a", a), ("b", bb)], "diff"),
                a.wrapping_sub(bb) & 0xFF
            );
            assert_eq!(
                eval(&n, &[("a", a), ("b", bb)], "noborrow"),
                u64::from(a >= bb)
            );
        }
    }

    #[test]
    fn logic_unit_ops() {
        let n = harness(&[("a", 8), ("b", 8), ("op", 2)], |b, ins| {
            let out = logic_unit(b, 0, &ins[0], &ins[1], ins[2][0], ins[2][1]).unwrap();
            vec![("out".into(), out)]
        });
        let a = 0b1100_1010u64;
        let bb = 0b1010_0110u64;
        assert_eq!(eval(&n, &[("a", a), ("b", bb), ("op", 0)], "out"), a & bb);
        assert_eq!(eval(&n, &[("a", a), ("b", bb), ("op", 1)], "out"), a | bb);
        assert_eq!(eval(&n, &[("a", a), ("b", bb), ("op", 2)], "out"), a ^ bb);
        assert_eq!(eval(&n, &[("a", a), ("b", bb), ("op", 3)], "out"), bb);
    }

    #[test]
    fn shifter_all_modes() {
        let n = harness(
            &[("v", 16), ("amt", 4), ("right", 1), ("arith", 1)],
            |b, ins| {
                let out = barrel_shifter(b, 0, &ins[0], &ins[1], ins[2][0], ins[3][0]).unwrap();
                vec![("out".into(), out)]
            },
        );
        let v = 0x8C3Au64;
        for amt in 0..16u64 {
            // Logical left.
            assert_eq!(
                eval(
                    &n,
                    &[("v", v), ("amt", amt), ("right", 0), ("arith", 0)],
                    "out"
                ),
                (v << amt) & 0xFFFF,
                "sll amt={amt}"
            );
            // Logical right.
            assert_eq!(
                eval(
                    &n,
                    &[("v", v), ("amt", amt), ("right", 1), ("arith", 0)],
                    "out"
                ),
                v >> amt,
                "srl amt={amt}"
            );
            // Arithmetic right (v has MSB set at width 16).
            let sign_ext = ((v as i64 | !0xFFFFi64) >> amt) as u64 & 0xFFFF;
            assert_eq!(
                eval(
                    &n,
                    &[("v", v), ("amt", amt), ("right", 1), ("arith", 1)],
                    "out"
                ),
                sign_ext,
                "sra amt={amt}"
            );
        }
    }

    #[test]
    fn equality_and_zero_detect() {
        let n = harness(&[("a", 8), ("b", 8)], |b, ins| {
            let eq = equality(b, 0, &ins[0], &ins[1]).unwrap();
            let z = zero_detect(b, 0, &ins[0]).unwrap();
            vec![("eq".into(), vec![eq]), ("z".into(), vec![z])]
        });
        assert_eq!(eval(&n, &[("a", 42), ("b", 42)], "eq"), 1);
        assert_eq!(eval(&n, &[("a", 42), ("b", 43)], "eq"), 0);
        assert_eq!(eval(&n, &[("a", 0), ("b", 1)], "z"), 1);
        assert_eq!(eval(&n, &[("a", 16), ("b", 1)], "z"), 0);
    }

    #[test]
    fn decoder_one_hot() {
        let n = harness(&[("sel", 3)], |b, ins| {
            let outs = decoder(b, 0, &ins[0]).unwrap();
            vec![("onehot".into(), outs)]
        });
        for sel in 0..8u64 {
            assert_eq!(eval(&n, &[("sel", sel)], "onehot"), 1 << sel);
        }
    }

    #[test]
    fn mux_tree_selects() {
        let n = harness(
            &[("s", 2), ("i0", 4), ("i1", 4), ("i2", 4), ("i3", 4)],
            |b, ins| {
                let out = mux_tree(
                    b,
                    0,
                    &ins[0],
                    &[
                        ins[1].clone(),
                        ins[2].clone(),
                        ins[3].clone(),
                        ins[4].clone(),
                    ],
                )
                .unwrap();
                vec![("out".into(), out)]
            },
        );
        let vals = [("i0", 1u64), ("i1", 5), ("i2", 9), ("i3", 14)];
        for s in 0..4u64 {
            let mut inputs = vals.to_vec();
            inputs.push(("s", s));
            assert_eq!(eval(&n, &inputs, "out"), vals[s as usize].1);
        }
    }

    #[test]
    fn multiplier_low_product() {
        let n = harness(&[("a", 8), ("b", 8)], |b, ins| {
            let p = array_multiplier_low(b, 0, &ins[0], &ins[1]).unwrap();
            vec![("p".into(), p)]
        });
        for (a, bb) in [
            (0u64, 0u64),
            (1, 255),
            (255, 255),
            (12, 13),
            (100, 3),
            (17, 15),
        ] {
            assert_eq!(
                eval(&n, &[("a", a), ("b", bb)], "p"),
                (a * bb) & 0xFF,
                "{a}*{bb}"
            );
        }
    }

    #[test]
    fn multiplier_16bit_random() {
        let n = harness(&[("a", 16), ("b", 16)], |b, ins| {
            let p = array_multiplier_low(b, 0, &ins[0], &ins[1]).unwrap();
            vec![("p".into(), p)]
        });
        let mut s = 7u64;
        for _ in 0..25 {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let a = s >> 20 & 0xFFFF;
            let bb = s >> 40 & 0xFFFF;
            assert_eq!(eval(&n, &[("a", a), ("b", bb)], "p"), (a * bb) & 0xFFFF);
        }
    }

    #[test]
    fn random_cloud_deterministic_and_sized() {
        let build = |seed| {
            harness(&[("x", 12)], move |b, ins| {
                let outs = random_cloud(b, 0, &ins[0], 200, 8, seed).unwrap();
                vec![("y".into(), outs)]
            })
        };
        let n1 = build(11);
        let n2 = build(11);
        assert_eq!(n1.gate_count(), n2.gate_count());
        let v1 = eval(&n1, &[("x", 0xABC)], "y");
        let v2 = eval(&n2, &[("x", 0xABC)], "y");
        assert_eq!(v1, v2);
        // Different seeds give different logic (almost surely).
        let n3 = build(12);
        let v3 = eval(&n3, &[("x", 0xABC)], "y");
        assert!(v1 != v3 || n1.gate_count() != n3.gate_count());
    }

    #[test]
    fn carry_chain_activity_depends_on_operands() {
        // 0xFFFF + 1 ripples a carry through every bit; 1 + 1 does not.
        // The number of activated gates must differ strongly — this is the
        // operand-dependence of DTS the whole framework is about.
        let n = harness(&[("a", 16), ("b", 16)], |b, ins| {
            let zero = b.tie(false, 0).unwrap();
            let (sum, _) = ripple_carry_adder(b, 0, &ins[0], &ins[1], zero).unwrap();
            vec![("sum".into(), sum)]
        });
        let activity = |a: u64, bb: u64| -> usize {
            let mut sim = Simulator::new(&n);
            sim.set_input_bus("a", a).unwrap();
            sim.set_input_bus("b", bb).unwrap();
            sim.step().count()
        };
        let long = activity(0xFFFF, 1);
        let short = activity(1, 0); // far fewer toggles
        assert!(long > short + 16, "long={long} short={short}");
    }
}
