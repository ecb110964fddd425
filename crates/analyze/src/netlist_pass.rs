//! Structural verification of the netlist IR.
//!
//! Algorithm 1 (and everything downstream of it — STA, SSTA, DTA, the
//! activation simulator) assumes a *well-formed* netlist: an acyclic
//! combinational graph, fully driven nets, one driver per flip-flop D pin,
//! and stage-consistent cones (the logic of stage `s` reads only stage-`s`
//! combinational values plus sequential launch points). The builder's
//! `finish()` enforces most of this at construction time; this pass
//! re-derives all of it on the *finished* object so that artifacts built
//! through the unchecked fixture path (or deserialized / future importers)
//! are diagnosed instead of silently mis-analyzed.
//!
//! Diagnostic codes:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | NL001 | error    | combinational cycle (Tarjan SCC over the comb subgraph) |
//! | NL002 | error    | undriven net: FF without a D driver, or comb gate with missing/wrong-arity fanin |
//! | NL003 | error    | multi-driver conflict on a flip-flop D pin |
//! | NL004 | warning  | floating net: a non-FF gate whose output drives nothing |
//! | NL005 | error    | stage-cone mismatch: stage-`s` logic reading another stage's combinational value |
//! | NL006 | warning  | unreachable endpoint: a D cone with no sequential/port source (constant-only) |

use crate::{AnalysisReport, Severity};
use terse_netlist::gate::{GateId, GateKind};
use terse_netlist::Netlist;

/// Runs every netlist structural pass, appending findings to `report`.
///
/// Emission order is deterministic: passes run in code order and iterate
/// gates in dense id order.
pub fn analyze_netlist(n: &Netlist, report: &mut AnalysisReport) {
    cycles(n, report);
    drivers(n, report);
    floating(n, report);
    stages(n, report);
    endpoint_sources(n, report);
}

fn entity(n: &Netlist, g: GateId) -> String {
    format!("{g} ({}, stage {})", n.kind(g).cell_name(), n.stage(g))
}

fn is_comb(n: &Netlist, g: GateId) -> bool {
    !n.kind(g).is_endpoint()
}

/// NL001 — combinational-loop detection via iterative Tarjan SCC over the
/// combinational subgraph (sequential elements and ports break paths, as
/// they do in timing analysis). One diagnostic per non-trivial SCC.
fn cycles(n: &Netlist, report: &mut AnalysisReport) {
    let count = n.gate_count();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; count];
    let mut low = vec![0u32; count];
    let mut on_stack = vec![false; count];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0u32;
    // Explicit DFS frames: (node, next-successor position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..count {
        if index[root] != UNVISITED || !is_comb(n, GateId::from_index(root)) {
            continue;
        }
        frames.push((root, 0));
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            // Advance this frame to its next unvisited combinational
            // successor, folding back-edge lowlinks along the way.
            let mut child: Option<usize> = None;
            let fanout = n.fanout(GateId::from_index(v));
            while *pos < fanout.len() {
                let w = fanout[*pos].index();
                *pos += 1;
                if !is_comb(n, GateId::from_index(w)) {
                    continue;
                }
                if index[w] == UNVISITED {
                    child = Some(w);
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if let Some(w) = child {
                index[w] = next;
                low[w] = next;
                next += 1;
                stack.push(w);
                on_stack[w] = true;
                frames.push((w, 0));
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut scc = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                let self_loop = scc.len() == 1
                    && n.fanin(GateId::from_index(scc[0]))
                        .contains(&GateId::from_index(scc[0]));
                if scc.len() > 1 || self_loop {
                    scc.sort_unstable();
                    let mut names: Vec<String> = scc
                        .iter()
                        .take(8)
                        .map(|&g| GateId::from_index(g).to_string())
                        .collect();
                    if scc.len() > 8 {
                        names.push(format!("… {} more", scc.len() - 8));
                    }
                    report.push(
                        "NL001",
                        Severity::Error,
                        entity(n, GateId::from_index(scc[0])),
                        format!(
                            "combinational cycle of {} gate(s): {}",
                            scc.len(),
                            names.join(", ")
                        ),
                        "break the loop with a flip-flop or remove the feedback edge",
                    );
                }
            }
        }
    }
}

/// NL002 / NL003 — every net must have exactly one driver: flip-flops need
/// a connected D input (and only one), combinational gates need their
/// kind's full arity.
fn drivers(n: &Netlist, report: &mut AnalysisReport) {
    for g in n.gate_ids() {
        let kind = n.kind(g);
        match kind {
            GateKind::FlipFlop => {
                let fanin = n.fanin(g).len();
                if n.ff_input(g).is_err() && fanin == 0 {
                    report.push(
                        "NL002",
                        Severity::Error,
                        entity(n, g),
                        "flip-flop D input is undriven",
                        "connect a driver with connect_ff_input",
                    );
                } else if fanin > 1 {
                    report.push(
                        "NL003",
                        Severity::Error,
                        entity(n, g),
                        format!("flip-flop D input has {fanin} drivers"),
                        "every net needs exactly one driver; remove the extras",
                    );
                }
            }
            GateKind::Input | GateKind::Tie(_) => {}
            _ => {
                let want = kind.fanin_count().unwrap_or(0);
                let got = n.fanin(g).len();
                if got != want {
                    report.push(
                        "NL002",
                        Severity::Error,
                        entity(n, g),
                        format!(
                            "gate has {got} fanin net(s); {} requires {want}",
                            kind.cell_name()
                        ),
                        "reconnect the gate with its full input arity",
                    );
                }
            }
        }
    }
}

/// NL004 — floating nets: a non-FF gate whose output is consumed by
/// nothing is dead logic. A warning, not an error: it cannot corrupt the
/// analysis (no path runs through it), but it is almost always a
/// generator bug and it wastes simulation work. Capture flip-flops
/// legitimately drive nothing (their Q may leave the analyzed region).
fn floating(n: &Netlist, report: &mut AnalysisReport) {
    for g in n.gate_ids() {
        if n.kind(g) != GateKind::FlipFlop && n.fanout(g).is_empty() {
            report.push(
                "NL004",
                Severity::Warning,
                entity(n, g),
                "gate output drives nothing (floating net)",
                "remove the dead gate or connect its output",
            );
        }
    }
}

/// NL005 — stage-cone consistency, the invariant `pipeline.rs` maintains
/// and the stage-DTS memoization (PR 4) depends on: a combinational gate
/// of stage `s` reads only stage-`s` combinational values (sequential
/// launch points — FFs, inputs, ties — may come from any stage), and a
/// flip-flop capturing stage `s` is driven by stage-`s` logic.
fn stages(n: &Netlist, report: &mut AnalysisReport) {
    for g in n.gate_ids() {
        let kind = n.kind(g);
        if kind == GateKind::FlipFlop {
            if let Ok(d) = n.ff_input(g) {
                if is_comb(n, d) && n.stage(d) != n.stage(g) {
                    report.push(
                        "NL005",
                        Severity::Error,
                        entity(n, g),
                        format!(
                            "endpoint captures stage {} but its driver {} is stage {}",
                            n.stage(g),
                            d,
                            n.stage(d)
                        ),
                        "retag the endpoint's capture stage or the driver's stage",
                    );
                }
            }
        } else if !kind.is_endpoint() {
            for &f in n.fanin(g) {
                if is_comb(n, f) && n.stage(f) != n.stage(g) {
                    report.push(
                        "NL005",
                        Severity::Error,
                        entity(n, g),
                        format!(
                            "stage-{} gate reads combinational value of {} (stage {})",
                            n.stage(g),
                            f,
                            n.stage(f)
                        ),
                        "cross-stage values must pass through a pipeline flip-flop",
                    );
                }
            }
        }
    }
}

/// NL006 — unreachable endpoints: a flip-flop whose D cone contains no
/// sequential element or primary input is driven purely by constants; it
/// has no launch-to-capture paths and contributes nothing to any stage
/// DTS. Dead state is a warning (the estimator simply never sees it).
fn endpoint_sources(n: &Netlist, report: &mut AnalysisReport) {
    for e in n.all_endpoints() {
        let Ok(d) = n.ff_input(e) else { continue };
        // DFS through the combinational cone; visited set makes this safe
        // on cyclic (ill-formed) netlists too.
        let mut visited = vec![false; n.gate_count()];
        let mut stack = vec![d];
        let mut has_source = false;
        while let Some(g) = stack.pop() {
            if visited[g.index()] {
                continue;
            }
            visited[g.index()] = true;
            match n.kind(g) {
                GateKind::FlipFlop | GateKind::Input => {
                    has_source = true;
                    break;
                }
                GateKind::Tie(_) => {}
                _ => stack.extend_from_slice(n.fanin(g)),
            }
        }
        if !has_source {
            report.push(
                "NL006",
                Severity::Warning,
                entity(n, e),
                "endpoint cone contains no flip-flop or input (constant-driven)",
                "remove the dead state element or wire real logic into it",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_netlist::builder::NetlistBuilder;
    use terse_netlist::netlist::EndpointClass;
    use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};

    fn check(n: &Netlist) -> AnalysisReport {
        let mut r = AnalysisReport::new();
        analyze_netlist(n, &mut r);
        r
    }

    /// in -> and(in, ff) -> ff : fully clean.
    fn clean_netlist() -> Netlist {
        let mut b = NetlistBuilder::new(1);
        let input = b.input("in", 0).unwrap();
        let ff = b.flip_flop("state", EndpointClass::Control, 0).unwrap();
        let and = b.gate(GateKind::And, &[input, ff], 0).unwrap();
        b.connect_ff_input(ff, and).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn clean_netlist_is_clean() {
        let r = check(&clean_netlist());
        assert!(r.is_clean(), "{}", r.render_text());
        assert!(r.diagnostics().is_empty());
    }

    #[test]
    fn detects_combinational_cycle() {
        let mut b = NetlistBuilder::new(1);
        let a = b.input("a", 0).unwrap();
        let g1 = b.gate(GateKind::And, &[a, a], 0).unwrap();
        let g2 = b.gate(GateKind::Or, &[g1, g1], 0).unwrap();
        b.rewire_fanin(g1, &[a, g2]).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(ff, g2).unwrap();
        let r = check(&b.finish_unchecked());
        assert!(r.has_code("NL001"), "{}", r.render_text());
        assert!(r.has_errors());
    }

    #[test]
    fn detects_self_loop() {
        let mut b = NetlistBuilder::new(1);
        let a = b.input("a", 0).unwrap();
        let g = b.gate(GateKind::And, &[a, a], 0).unwrap();
        b.rewire_fanin(g, &[a, g]).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(ff, g).unwrap();
        let r = check(&b.finish_unchecked());
        assert!(r.has_code("NL001"), "{}", r.render_text());
    }

    #[test]
    fn detects_undriven_ff() {
        let mut b = NetlistBuilder::new(1);
        let a = b.input("a", 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        let inv = b.gate(GateKind::Not, &[a], 0).unwrap();
        let cap = b.flip_flop("cap", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(cap, inv).unwrap();
        let _ = ff; // left undriven on purpose
        let r = check(&b.finish_unchecked());
        assert!(r.has_code("NL002"), "{}", r.render_text());
    }

    #[test]
    fn detects_multidriver() {
        let mut b = NetlistBuilder::new(1);
        let a = b.input("a", 0).unwrap();
        let inv = b.gate(GateKind::Not, &[a], 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(ff, inv).unwrap();
        b.add_ff_driver(ff, a).unwrap();
        let r = check(&b.finish_unchecked());
        assert!(r.has_code("NL003"), "{}", r.render_text());
    }

    #[test]
    fn detects_floating_net() {
        let mut b = NetlistBuilder::new(1);
        let a = b.input("a", 0).unwrap();
        let used = b.gate(GateKind::Not, &[a], 0).unwrap();
        let _dead = b.gate(GateKind::Buf, &[a], 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(ff, used).unwrap();
        let r = check(&b.finish().unwrap());
        assert!(r.has_code("NL004"), "{}", r.render_text());
        assert!(!r.has_errors(), "floating nets are warnings");
    }

    #[test]
    fn detects_stage_mismatch() {
        let mut b = NetlistBuilder::new(2);
        let a = b.input("a", 0).unwrap();
        let g0 = b.gate(GateKind::Not, &[a], 0).unwrap();
        // Stage-1 logic illegally reading stage-0 combinational output.
        let g1 = b.gate(GateKind::Buf, &[g0], 1).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 1).unwrap();
        b.connect_ff_input(ff, g1).unwrap();
        let r = check(&b.finish().unwrap());
        assert!(r.has_code("NL005"), "{}", r.render_text());
    }

    #[test]
    fn detects_constant_driven_endpoint() {
        let mut b = NetlistBuilder::new(1);
        let t = b.tie(true, 0).unwrap();
        let g = b.gate(GateKind::Buf, &[t], 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(ff, g).unwrap();
        let r = check(&b.finish().unwrap());
        assert!(r.has_code("NL006"), "{}", r.render_text());
    }

    #[test]
    fn reference_pipeline_has_no_errors() {
        // The 6-stage pipeline must pass with zero *errors*. Its only
        // problems are 257 floating nets, spread over all six stages: two-
        // input gates of the generated logic whose outputs nothing reads.
        // The pass reports each as a warning. The count is pinned so that a
        // generator change that adds or removes dead logic shows up here.
        let p = PipelineNetlist::build(PipelineConfig::default()).unwrap();
        let r = check(p.netlist());
        assert!(!r.has_errors(), "{}", r.render_text());
        for d in r.problems() {
            assert_eq!(d.code, "NL004", "unexpected problem: {d}");
        }
        assert_eq!(r.problems().count(), 257, "NL004 floating nets");
    }
}
