//! Pass 5: a worst-case cycle bound per entry point — the longest acyclic
//! path plus a bound per loop iteration.
//!
//! Calls are handled by summary: each callee gets a longest-acyclic-path
//! bound of its own, and the caller's WCET view steps straight from the
//! call block to the continuation charging that summary. (Following call
//! edges in a plain longest-path walk would let one acyclic path visit a
//! twice-called helper only once and *under*-estimate.)

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use super::absint::Facts;
use super::cfg::Cfg;
use super::report::{Check, Diagnostic, EntryWcet, LoopBound, Severity};
use super::spec::MachineSpec;

/// WCET summary of one called routine: longest acyclic path through its
/// body, and the per-iteration bound of each loop it contains.
#[derive(Debug, Clone, Default)]
struct FnSummary {
    acyclic: u64,
    loops: BTreeMap<u32, u64>,
}

/// Edge list used for WCET walks: successors with u64 edge costs.
type WcetView = BTreeMap<u32, Vec<(u32, u64)>>;

pub(super) fn bound(
    spec: &MachineSpec,
    cfg: &Cfg,
    facts: &Facts,
) -> (Vec<EntryWcet>, Vec<Diagnostic>) {
    let jump = u64::from(spec.cost.jump);
    let (summaries, diags) = summarize_callees(cfg, facts, jump);
    let view = build_wcet_view(cfg, &summaries, jump);
    let mut wcet = Vec::new();
    for &entry in cfg.entries.keys() {
        let Some((best, mut loops)) = longest_path_view(entry, &view, facts) else {
            continue;
        };
        // Loop bounds inside callees belong to this entry's budget too.
        let mut reach: BTreeSet<u32> = BTreeSet::new();
        let mut q: VecDeque<u32> = VecDeque::new();
        q.push_back(entry);
        while let Some(b) = q.pop_front() {
            if !view.contains_key(&b) || !reach.insert(b) {
                continue;
            }
            for &(s, _) in &view[&b] {
                q.push_back(s);
            }
        }
        adopt_callee_loops(&mut loops, &reach, cfg, &summaries);
        wcet.push(EntryWcet {
            entry,
            label: cfg.labels.get(&entry).cloned(),
            acyclic_cycles: best,
            loops: loops
                .into_iter()
                .map(|(header, cycles_per_iter)| LoopBound {
                    header,
                    label: cfg.labels.get(&header).cloned(),
                    cycles_per_iter,
                })
                .collect(),
        });
    }
    (wcet, diags)
}

/// Folds into `loops` the loop bounds of every routine called from `blocks`.
fn adopt_callee_loops(
    loops: &mut BTreeMap<u32, u64>,
    blocks: &BTreeSet<u32>,
    cfg: &Cfg,
    summaries: &BTreeMap<u32, FnSummary>,
) {
    for b in blocks {
        if let Some(&(g, _)) = cfg.call_conts.get(b) {
            if let Some(s) = summaries.get(&g) {
                for (&h, &c) in &s.loops {
                    let e = loops.entry(h).or_insert(c);
                    *e = (*e).max(c);
                }
            }
        }
    }
}

/// Summarizes callees in dependency order; anything stuck in a call-graph
/// cycle cannot be bounded and is flagged instead.
fn summarize_callees(
    cfg: &Cfg,
    facts: &Facts,
    jump: u64,
) -> (BTreeMap<u32, FnSummary>, Vec<Diagnostic>) {
    let mut deps: BTreeMap<u32, BTreeSet<u32>> =
        cfg.bodies.keys().map(|&f| (f, BTreeSet::new())).collect();
    let mut recursive: BTreeSet<u32> = BTreeSet::new();
    for (&f, body) in &cfg.bodies {
        for b in body {
            if let Some(&(g, _)) = cfg.call_conts.get(b) {
                if g == f {
                    recursive.insert(f);
                } else if cfg.bodies.contains_key(&g) {
                    deps.get_mut(&f).unwrap().insert(g);
                }
            }
        }
    }
    let mut order: Vec<u32> = Vec::new();
    let mut remaining: BTreeSet<u32> = cfg.bodies.keys().copied().collect();
    loop {
        let ready: Vec<u32> = remaining
            .iter()
            .copied()
            .filter(|f| deps[f].iter().all(|g| !remaining.contains(g)))
            .collect();
        if ready.is_empty() {
            break;
        }
        for f in ready {
            remaining.remove(&f);
            order.push(f);
        }
    }
    let mut summaries: BTreeMap<u32, FnSummary> = BTreeMap::new();
    let mut diags = Vec::new();
    for f in remaining.iter().copied().chain(recursive.iter().copied()) {
        if summaries.contains_key(&f) {
            continue;
        }
        summaries.insert(f, FnSummary::default());
        diags.push(Diagnostic {
            severity: Severity::Warning,
            check: Check::Flow,
            pc: f,
            message: format!(
                "recursive call cycle through 0x{f:08x}; the WCET bound does \
                 not cover recursion depth"
            ),
            path: cfg.path_to(f),
        });
    }
    for &f in &order {
        if summaries.contains_key(&f) {
            continue; // self-recursive: placeholder already present
        }
        let view = build_wcet_view(cfg, &summaries, jump);
        if let Some((acyclic, mut loops)) = longest_path_view(f, &view, facts) {
            adopt_callee_loops(&mut loops, &cfg.bodies[&f], cfg, &summaries);
            summaries.insert(f, FnSummary { acyclic, loops });
        }
    }
    (summaries, diags)
}

/// Builds the call-summarized WCET graph: a `jal ra` call block steps
/// straight to its continuation charging the jump plus the callee's acyclic
/// summary, and return blocks terminate (their cost is part of the callee
/// summary, charged at the call site).
fn build_wcet_view(cfg: &Cfg, summaries: &BTreeMap<u32, FnSummary>, jump: u64) -> WcetView {
    let mut view: WcetView = BTreeMap::new();
    for (&at, block) in &cfg.blocks {
        let succs = if let Some(&(callee, cont)) = cfg.call_conts.get(&at) {
            let callee_cost = summaries.get(&callee).map(|s| s.acyclic).unwrap_or(0);
            vec![(cont, jump + callee_cost)]
        } else if block.is_ret {
            Vec::new()
        } else {
            block
                .succs
                .iter()
                .filter(|&&(s, _)| cfg.blocks.contains_key(&s))
                .map(|&(s, c)| (s, u64::from(c)))
                .collect()
        };
        view.insert(at, succs);
    }
    view
}
/// Longest acyclic path + per-loop iteration bounds from `entry` over a
/// WCET view. Returns `(acyclic_cycles, loop header -> cycles/iter)`.
fn longest_path_view(
    entry: u32,
    view: &WcetView,
    facts: &Facts,
) -> Option<(u64, BTreeMap<u32, u64>)> {
    let body = |b: u32| facts.body_cycles(b);
    view.get(&entry)?;
    // DFS from the entry classifying back edges (u -> v with v on the DFS
    // stack). Firmware CFGs here are reducible; anything stranger still
    // terminates because back edges are removed below.
    let mut on_stack: BTreeSet<u32> = BTreeSet::new();
    let mut visited: BTreeSet<u32> = BTreeSet::new();
    let mut back_edges: Vec<(u32, u32)> = Vec::new();
    let mut stack: Vec<(u32, usize)> = vec![(entry, 0)];
    visited.insert(entry);
    on_stack.insert(entry);
    while let Some(&mut (at, ref mut next)) = stack.last_mut() {
        let succs = &view[&at];
        if *next < succs.len() {
            let (s, _) = succs[*next];
            *next += 1;
            if !view.contains_key(&s) {
                continue;
            }
            if on_stack.contains(&s) {
                back_edges.push((at, s));
            } else if visited.insert(s) {
                on_stack.insert(s);
                stack.push((s, 0));
            }
        } else {
            on_stack.remove(&at);
            stack.pop();
        }
    }

    let is_back = |u: u32, v: u32| back_edges.iter().any(|&(a, b)| (a, b) == (u, v));

    // Longest path over the forward (acyclic) subgraph.
    let order = topo_order_view(view, &visited, &is_back);
    let mut dist: BTreeMap<u32, u64> = BTreeMap::new();
    dist.insert(entry, 0);
    let mut best = 0u64;
    for &at in &order {
        let Some(&d) = dist.get(&at) else { continue };
        let here = d + body(at);
        let term = view[&at].iter().map(|&(_, c)| c).max().unwrap_or(0);
        best = best.max(here + term);
        for &(s, c) in &view[&at] {
            if is_back(at, s) || !view.contains_key(&s) {
                continue;
            }
            let cand = here + c;
            let e = dist.entry(s).or_insert(cand);
            *e = (*e).max(cand);
        }
    }

    // Per-loop bound: for each back edge u -> h, the worst path from h to u
    // inside the natural loop, plus the back edge itself.
    let mut loop_bounds: BTreeMap<u32, u64> = BTreeMap::new();
    for &(u, h) in &back_edges {
        let members = natural_loop_view(view, u, h);
        let sub_order: Vec<u32> = order
            .iter()
            .copied()
            .filter(|b| members.contains(b))
            .collect();
        let mut d: BTreeMap<u32, u64> = BTreeMap::new();
        d.insert(h, 0);
        for &at in &sub_order {
            let Some(&da) = d.get(&at) else { continue };
            for &(s, c) in &view[&at] {
                if is_back(at, s) || !members.contains(&s) {
                    continue;
                }
                let cand = da + body(at) + c;
                let e = d.entry(s).or_insert(cand);
                *e = (*e).max(cand);
            }
        }
        let edge_cost = view[&u]
            .iter()
            .find(|&&(s, _)| s == h)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        if let Some(&du) = d.get(&u) {
            let iter = du + body(u) + edge_cost;
            let e = loop_bounds.entry(h).or_insert(iter);
            *e = (*e).max(iter);
        }
    }

    Some((best, loop_bounds))
}

/// Topological order of `visited` nodes over forward view edges.
fn topo_order_view(
    view: &WcetView,
    visited: &BTreeSet<u32>,
    is_back: &impl Fn(u32, u32) -> bool,
) -> Vec<u32> {
    let mut indeg: BTreeMap<u32, usize> = visited.iter().map(|&b| (b, 0)).collect();
    for &b in visited {
        for &(s, _) in &view[&b] {
            if visited.contains(&s) && !is_back(b, s) {
                *indeg.get_mut(&s).unwrap() += 1;
            }
        }
    }
    let mut queue: VecDeque<u32> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&b, _)| b)
        .collect();
    let mut order = Vec::with_capacity(visited.len());
    while let Some(at) = queue.pop_front() {
        order.push(at);
        for &(s, _) in &view[&at] {
            if visited.contains(&s) && !is_back(at, s) {
                let d = indeg.get_mut(&s).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push_back(s);
                }
            }
        }
    }
    order
}

/// Natural loop of back edge `u -> h`: `h` plus everything that reaches `u`
/// without passing through `h`.
fn natural_loop_view(view: &WcetView, u: u32, h: u32) -> BTreeSet<u32> {
    let mut preds: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (&b, succs) in view {
        for &(s, _) in succs {
            preds.entry(s).or_default().push(b);
        }
    }
    let mut members: BTreeSet<u32> = BTreeSet::new();
    members.insert(h);
    members.insert(u);
    let mut queue: VecDeque<u32> = VecDeque::new();
    if u != h {
        queue.push_back(u);
    }
    while let Some(at) = queue.pop_front() {
        for &p in preds.get(&at).map(|v| v.as_slice()).unwrap_or(&[]) {
            if members.insert(p) {
                queue.push_back(p);
            }
        }
    }
    members
}

#[cfg(test)]
mod tests {
    use crate::analyze::fixtures::*;
    use crate::asm::assemble;
    use crate::cpu::{Cpu, RamBus, StepResult};

    #[test]
    fn wcet_bound_covers_simulated_straight_line() {
        let src = "
            li a0, 100
            li a1, 7
            add a2, a0, a1
            sw a2, 0x100(zero)
            lw a3, 0x100(zero)
            mul a4, a3, a1
            ebreak
        ";
        let image = assemble(src).unwrap();
        let report = bare().check(&image);
        assert!(!report.has_errors());
        let mut bus = RamBus::new(65536);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        while !matches!(cpu.step(&mut bus), StepResult::Break) {}
        assert!(
            report.wcet[0].acyclic_cycles >= cpu.cycles(),
            "bound {} < measured {}",
            report.wcet[0].acyclic_cycles,
            cpu.cycles()
        );
    }

    #[test]
    fn wcet_loop_bound_covers_simulated_loop() {
        let iters = 37u64;
        let src = format!(
            "
                li a0, 0
                li a1, {iters}
            loop:
                add a0, a0, a1
                addi a1, a1, -1
                bnez a1, loop
                ebreak
            "
        );
        let image = assemble(&src).unwrap();
        let report = bare().check(&image);
        let w = &report.wcet[0];
        assert_eq!(w.loops.len(), 1);
        let bound = w.acyclic_cycles + (iters - 1) * w.loops[0].cycles_per_iter;
        let mut bus = RamBus::new(65536);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        while !matches!(cpu.step(&mut bus), StepResult::Break) {}
        assert!(
            bound >= cpu.cycles(),
            "bound {bound} < measured {}",
            cpu.cycles()
        );
    }

    /// A helper called twice must be charged twice in the caller's WCET.
    #[test]
    fn wcet_charges_each_call_site() {
        let image = assemble(
            "
                li a0, 5
                call double
                call double
                ebreak
            double:
                add a0, a0, a0
                ret
            ",
        )
        .unwrap();
        let report = bare().check(&image);
        let entry = report.wcet.iter().find(|w| w.entry == 0).unwrap();
        let mut bus = RamBus::new(65536);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        while !matches!(cpu.step(&mut bus), StepResult::Break) {}
        assert!(
            entry.acyclic_cycles >= cpu.cycles(),
            "bound {} < measured {} (helper under-charged?)",
            entry.acyclic_cycles,
            cpu.cycles()
        );
    }

    #[test]
    fn recursion_is_flagged_not_followed() {
        let r = check(
            MachineSpec::bare(4096, 65536),
            "
                li sp, 0x8000
                li a0, 5
                call spin
                ebreak
            spin:
                addi a0, a0, -1
                call spin
                ret
            ",
        );
        assert!(
            has(&r, Check::Flow, Severity::Warning),
            "{:#?}",
            r.diagnostics
        );
    }
}
