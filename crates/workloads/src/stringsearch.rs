//! `stringsearch` analog (MiBench office): Boyer–Moore–Horspool search —
//! the original benchmark's exact algorithm, with its shift-table build and
//! data-dependent skip loop.

use crate::{rng_for, write_at, BenchmarkSpec, DatasetSize};
use terse_isa::Program;
use terse_sim::machine::Machine;

/// Alphabet size (characters are 0..26, one per word).
pub const SIGMA: u32 = 26;

/// Assembly source. Data: `tlen`, `plen`, `text`, `pattern`, `shift`
/// (per-character skip table), output `hits`.
pub const ASM: &str = r"
.data
tlen:    .word 0
plen:    .word 0
hits:    .word 0
shift:   .space 26
pattern: .space 16
text:    .space 2200
.text
main:
    la   r20, tlen
    ld   r21, r20, 0         # n
    la   r20, plen
    ld   r22, r20, 0         # m
    la   r23, text
    la   r24, pattern
    la   r25, shift

    # ---- build the bad-character table: shift[c] = m, then
    # ---- shift[pat[i]] = m-1-i for i in 0..m-1
    addi r5, r0, 0
tbl_init:
    slti r6, r5, 26
    beq  r6, r0, tbl_fill
    add  r7, r25, r5
    st   r22, r7, 0
    addi r5, r5, 1
    j    tbl_init
tbl_fill:
    addi r5, r0, 0
    addi r10, r22, -1        # m-1
tbl_loop:
    bge  r5, r10, search_init
    add  r7, r24, r5
    ld   r11, r7, 0          # pat[i]
    sub  r12, r10, r5        # m-1-i
    add  r7, r25, r11
    st   r12, r7, 0
    addi r5, r5, 1
    j    tbl_loop

    # ---- BMH scan ----------------------------------------------------
search_init:
    addi r26, r22, -1        # i = m-1
    addi r27, r0, 0          # hits
scan:
    bge  r26, r21, done      # i >= n: finished
    addi r5, r0, 0           # j
match_loop:
    bge  r5, r22, found
    sub  r6, r26, r5         # text index i-j
    add  r7, r23, r6
    ld   r11, r7, 0
    sub  r6, r22, r5
    addi r6, r6, -1          # pattern index m-1-j
    add  r7, r24, r6
    ld   r12, r7, 0
    bne  r11, r12, advance
    addi r5, r5, 1
    j    match_loop
found:
    addi r27, r27, 1
advance:
    add  r7, r23, r26
    ld   r11, r7, 0          # text[i]
    add  r7, r25, r11
    ld   r12, r7, 0          # shift[text[i]]
    add  r26, r26, r12
    j    scan
done:
    la   r20, hits
    st   r27, r20, 0
    halt
";

fn fill(m: &mut Machine, p: &Program, seed: u64, size: DatasetSize) {
    let mut rng = rng_for(seed ^ 0x5EA2);
    let (n, plant) = match size {
        DatasetSize::Small => (
            120 + rng.next_below(80) as usize,
            2 + rng.next_below(4) as usize,
        ),
        DatasetSize::Large => (
            1536 + rng.next_below(1024) as usize,
            12 + rng.next_below(24) as usize,
        ),
    };
    let mlen = 4 + rng.next_below(4) as usize;
    let pattern: Vec<u32> = (0..mlen)
        .map(|_| rng.next_below(SIGMA as u64) as u32)
        .collect();
    let mut text: Vec<u32> = (0..n)
        .map(|_| rng.next_below(SIGMA as u64) as u32)
        .collect();
    // Plant some occurrences so hits are guaranteed.
    for _ in 0..plant {
        let pos = rng.next_below((n - mlen) as u64) as usize;
        text[pos..pos + mlen].copy_from_slice(&pattern);
    }
    write_at(m, p, "tlen", &[n as u32]);
    write_at(m, p, "plen", &[mlen as u32]);
    write_at(m, p, "pattern", &pattern);
    write_at(m, p, "text", &text);
}

/// The benchmark spec (paper Table 2: 27,984,283 instructions, 133 blocks).
pub static SPEC: BenchmarkSpec = BenchmarkSpec {
    name: "stringsearch",
    category: "office",
    paper_instructions: 27_984_283,
    paper_blocks: 133,
    asm: ASM,
    fill,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference BMH hit count (non-overlap-aware, like the kernel: advances by
    /// the bad-character shift even after a match).
    fn reference_hits(text: &[u32], pattern: &[u32]) -> u32 {
        let n = text.len() as i64;
        let m = pattern.len() as i64;
        let mut shift = vec![m; SIGMA as usize];
        for i in 0..m - 1 {
            shift[pattern[i as usize] as usize] = m - 1 - i;
        }
        let mut i = m - 1;
        let mut hits = 0;
        while i < n {
            let mut j = 0;
            while j < m && text[(i - j) as usize] == pattern[(m - 1 - j) as usize] {
                j += 1;
            }
            if j == m {
                hits += 1;
            }
            i += shift[text[i as usize] as usize];
        }
        hits
    }

    #[test]
    fn hits_match_reference() {
        let p = SPEC.program().unwrap();
        for seed in [6u64, 12, 33] {
            let mut m = Machine::new(&p, 1 << 14);
            (SPEC.fill)(&mut m, &p, seed, DatasetSize::Small);
            let n = m.dmem()[p.data_label("tlen").unwrap() as usize] as usize;
            let mlen = m.dmem()[p.data_label("plen").unwrap() as usize] as usize;
            let tb = p.data_label("text").unwrap() as usize;
            let pb = p.data_label("pattern").unwrap() as usize;
            let text: Vec<u32> = m.dmem()[tb..tb + n].to_vec();
            let pattern: Vec<u32> = m.dmem()[pb..pb + mlen].to_vec();
            let want = reference_hits(&text, &pattern);
            m.run(&p, 10_000_000).unwrap();
            let hits = m.dmem()[p.data_label("hits").unwrap() as usize];
            assert_eq!(hits, want, "seed {seed}");
            assert!(hits >= 1, "planted occurrences must be found");
        }
    }

    #[test]
    fn shift_table_is_correct() {
        let p = SPEC.program().unwrap();
        let mut m = Machine::new(&p, 1 << 14);
        (SPEC.fill)(&mut m, &p, 3, DatasetSize::Small);
        let mlen = m.dmem()[p.data_label("plen").unwrap() as usize] as i64;
        let pb = p.data_label("pattern").unwrap() as usize;
        let pattern: Vec<u32> = m.dmem()[pb..pb + mlen as usize].to_vec();
        m.run(&p, 10_000_000).unwrap();
        let sb = p.data_label("shift").unwrap() as usize;
        let mut want = vec![mlen; SIGMA as usize];
        for i in 0..mlen - 1 {
            want[pattern[i as usize] as usize] = mlen - 1 - i;
        }
        for c in 0..SIGMA as usize {
            assert_eq!(m.dmem()[sb + c] as i64, want[c], "char {c}");
        }
    }
}
