//! Gate delay annotation — the normalized 45 nm-flavoured cell library.
//!
//! The paper's absolute numbers come from a TSMC 45 nm library we cannot
//! ship; what the estimator consumes is only *relative* slack, so we use a
//! normalized library in picosecond-like units whose ratios follow typical
//! 45 nm standard cells (INV ≈ 8, NAND2 ≈ 10, XOR2 ≈ 18, MUX2 ≈ 16, plus a
//! per-fanout load adder). DESIGN.md records this substitution.

use terse_netlist::{GateId, GateKind, Netlist};

/// Per-kind base delays plus a linear fanout load model:
/// `delay(g) = base(kind) + load_per_fanout · max(fanout − 1, 0)`.
///
/// # Example
/// ```
/// use terse_sta::delay::DelayLibrary;
/// let lib = DelayLibrary::normalized_45nm();
/// assert!(lib.base(terse_netlist::GateKind::Xor) > lib.base(terse_netlist::GateKind::Nand));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DelayLibrary {
    inv: f64,
    buf: f64,
    nand: f64,
    nor: f64,
    and: f64,
    or: f64,
    xor: f64,
    xnor: f64,
    mux: f64,
    /// Clock-to-Q delay of a flip-flop (contributes at the head of a path).
    pub clk_to_q: f64,
    /// Setup time of a flip-flop (contributes at the tail of a path).
    pub setup: f64,
    /// Additional delay per fanout beyond the first.
    pub load_per_fanout: f64,
}

impl DelayLibrary {
    /// The default normalized 45 nm-flavoured library.
    pub fn normalized_45nm() -> Self {
        DelayLibrary {
            inv: 8.0,
            buf: 10.0,
            nand: 10.0,
            nor: 11.0,
            and: 14.0,
            or: 14.0,
            xor: 18.0,
            xnor: 18.0,
            mux: 16.0,
            clk_to_q: 45.0,
            setup: 25.0,
            load_per_fanout: 1.5,
        }
    }

    /// Base (unloaded) delay of a gate kind. Ports, ties and flip-flops have
    /// no combinational delay of their own (flip-flop timing enters through
    /// [`DelayLibrary::clk_to_q`] / [`DelayLibrary::setup`]).
    pub fn base(&self, kind: GateKind) -> f64 {
        match kind {
            GateKind::Input | GateKind::Tie(_) | GateKind::FlipFlop => 0.0,
            GateKind::Buf => self.buf,
            GateKind::Not => self.inv,
            GateKind::And => self.and,
            GateKind::Or => self.or,
            GateKind::Nand => self.nand,
            GateKind::Nor => self.nor,
            GateKind::Xor => self.xor,
            GateKind::Xnor => self.xnor,
            GateKind::Mux => self.mux,
        }
    }

    /// Loaded nominal delay of a specific gate instance.
    pub fn nominal(&self, netlist: &Netlist, id: GateId) -> f64 {
        let base = self.base(netlist.kind(id));
        if base == 0.0 {
            return 0.0;
        }
        let fo = netlist.fanout(id).len().saturating_sub(1) as f64;
        base + self.load_per_fanout * fo
    }

    /// Nominal delays for every gate, indexed by gate id.
    pub fn annotate(&self, netlist: &Netlist) -> Vec<f64> {
        netlist
            .gate_ids()
            .map(|g| self.nominal(netlist, g))
            .collect()
    }
}

impl Default for DelayLibrary {
    fn default() -> Self {
        DelayLibrary::normalized_45nm()
    }
}

/// Clock constraints of an analysis: the clock period under test.
///
/// The paper's operating points map to periods: 718 MHz (STA-safe baseline),
/// 810 MHz (point of first failure), 825 MHz (working point, 1.15×).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConstraints {
    /// Clock period in library units (ps).
    pub clock_period: f64,
}

impl TimingConstraints {
    /// Creates constraints from a period.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive.
    pub fn with_period(clock_period: f64) -> Self {
        assert!(clock_period > 0.0, "clock period must be positive");
        TimingConstraints { clock_period }
    }

    /// A new constraint with the period scaled by `1/factor` (i.e. the
    /// frequency scaled by `factor`) — how the paper overclocks from the
    /// baseline to 1.13× and 1.15×.
    pub fn overclocked(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "overclock factor must be positive");
        TimingConstraints {
            clock_period: self.clock_period / factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_netlist::builder::NetlistBuilder;
    use terse_netlist::netlist::EndpointClass;

    #[test]
    fn base_delays_ordering() {
        let lib = DelayLibrary::normalized_45nm();
        assert!(lib.base(GateKind::Not) < lib.base(GateKind::Nand));
        assert!(lib.base(GateKind::Nand) < lib.base(GateKind::And));
        assert!(lib.base(GateKind::And) < lib.base(GateKind::Xor));
        assert_eq!(lib.base(GateKind::FlipFlop), 0.0);
        assert_eq!(lib.base(GateKind::Input), 0.0);
    }

    #[test]
    fn fanout_loading() {
        let mut b = NetlistBuilder::new(1);
        let x = b.input("x", 0).unwrap();
        let inv = b.gate(GateKind::Not, &[x], 0).unwrap();
        // Give the inverter 3 fanouts.
        let f1 = b.gate(GateKind::Buf, &[inv], 0).unwrap();
        let _f2 = b.gate(GateKind::Buf, &[inv], 0).unwrap();
        let _f3 = b.gate(GateKind::Buf, &[inv], 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(ff, f1).unwrap();
        let n = b.finish().unwrap();
        let lib = DelayLibrary::normalized_45nm();
        let d = lib.nominal(&n, inv);
        assert!((d - (8.0 + 1.5 * 2.0)).abs() < 1e-12);
        // Buffers driving one load have their base delay.
        assert!((lib.nominal(&n, f1) - 10.0).abs() < 1e-12);
        let ann = lib.annotate(&n);
        assert_eq!(ann.len(), n.gate_count());
        assert_eq!(ann[inv.index()], d);
    }

    #[test]
    fn constraints_conversions() {
        let c = TimingConstraints::with_period(1000.0 / 0.718);
        let oc = c.overclocked(1.15);
        assert!((1000.0 / oc.clock_period - 0.718 * 1.15).abs() < 1e-12);
        assert!(oc.clock_period < c.clock_period);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = TimingConstraints::with_period(0.0);
    }
}
