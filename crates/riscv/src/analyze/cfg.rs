//! Pass 1: the control-flow graph. Reachable code is discovered from the
//! entry points, cut into basic blocks with per-edge costs, the `jal ra` /
//! `ret` call idiom is resolved, and what the graph alone can tell —
//! illegal words, unfollowable jumps, dead code — is reported.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::asm::Image;
use crate::cpu::CostModel;
use crate::icache::DecodeCache;
use crate::isa::{Instr, Reg};

use super::report::{Check, Diagnostic, Severity};

#[derive(Debug, Clone)]
pub(super) struct Block {
    pub(super) start: u32,
    pub(super) instrs: Vec<(u32, Instr)>,
    /// Successor block starts with the cycle cost of taking that edge
    /// (terminator cost; body cost is separate).
    pub(super) succs: Vec<(u32, u32)>,
    /// Whether a reachable decode failure terminates this block.
    pub(super) illegal_at: Option<u32>,
    /// Whether the block ends in the assembler's `ret` idiom
    /// (`jalr zero, ra, 0`); resolved return edges are added to `succs`.
    pub(super) is_ret: bool,
}

/// The graph every later pass walks.
#[derive(Debug)]
pub(super) struct Cfg {
    /// Entry PC -> whether it is a trap vector (else the boot PC).
    pub(super) entries: BTreeMap<u32, bool>,
    /// Basic blocks by start PC.
    pub(super) blocks: BTreeMap<u32, Block>,
    /// Every PC some path executes.
    pub(super) reachable: BTreeSet<u32>,
    /// Call-site table: call block start -> (callee entry, continuation).
    pub(super) call_conts: BTreeMap<u32, (u32, u32)>,
    /// Callee entry -> the blocks of its body (nested calls stepped over).
    pub(super) bodies: BTreeMap<u32, BTreeSet<u32>>,
    /// Lowest-named label per address, for stable human-readable reports.
    pub(super) labels: BTreeMap<u32, String>,
}

impl Cfg {
    /// Shortest path (by block count) from any entry to `target`, as a list
    /// of block-start PCs: the diagnostic path witness.
    pub(super) fn path_to(&self, target: u32) -> Vec<u32> {
        bfs_path(&self.blocks, self.entries.keys().copied(), target)
    }

    /// ` <label>` for the label at `pc`, or nothing.
    pub(super) fn label_suffix(&self, pc: u32) -> String {
        self.labels
            .get(&pc)
            .map(|l| format!(" <{l}>"))
            .unwrap_or_default()
    }
}

/// How one instruction hands control on: the single classification both the
/// discovery scan and the block builder act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Flow {
    /// Not a terminator: execution continues at `pc + 4`.
    Next,
    /// Conditional branch.
    Branch { taken: u32, fall: u32 },
    /// `jal`. `cont` is `pc + 4` when it links through `ra` — the
    /// assembler's call idiom, whose continuation is reachable through the
    /// callee's `ret`.
    Jump { target: u32, cont: Option<u32> },
    /// `jalr`: the target is runtime-dependent. `ret` marks the
    /// assembler's return idiom, `jalr zero, ra, 0`.
    Indirect { ret: bool },
    /// `mret` / `ebreak`: no static successor.
    Stop,
}

impl Flow {
    /// The static PCs that must start a block after this instruction, in
    /// the order the discovery scan queues them.
    fn leaders(self) -> [Option<u32>; 2] {
        match self {
            Flow::Branch { taken, fall } => [Some(taken), Some(fall)],
            Flow::Jump { target, cont } => [Some(target), cont],
            Flow::Next | Flow::Indirect { .. } | Flow::Stop => [None, None],
        }
    }
}

pub(super) fn flow(pc: u32, instr: Instr) -> Flow {
    match instr {
        Instr::Branch { imm, .. } => Flow::Branch {
            taken: pc.wrapping_add(imm as u32),
            fall: pc.wrapping_add(4),
        },
        Instr::Jal { rd, imm } => Flow::Jump {
            target: pc.wrapping_add(imm as u32),
            cont: (rd == Reg::RA).then_some(pc.wrapping_add(4)),
        },
        Instr::Jalr { rd, rs1, imm } => Flow::Indirect {
            ret: rd == Reg::ZERO && rs1 == Reg::RA && imm == 0,
        },
        Instr::Mret | Instr::Ebreak => Flow::Stop,
        _ => Flow::Next,
    }
}

/// Builds the graph reachable from `entries`, plus its structural findings.
pub(super) fn build(
    image: &Image,
    dc: &mut DecodeCache,
    cost: &CostModel,
    entries: &BTreeMap<u32, bool>,
) -> (Cfg, Vec<Diagnostic>) {
    let (leaders, reachable) = discover(dc, entries);
    let (blocks, call_conts) = materialize(dc, cost, &leaders, &reachable);
    let mut cfg = Cfg {
        entries: entries.clone(),
        blocks,
        reachable,
        call_conts,
        bodies: BTreeMap::new(),
        labels: label_map(image),
    };
    resolve_returns(&mut cfg);
    let diags = structural_findings(&cfg, image, dc);
    (cfg, diags)
}

/// Phase A: reachable PCs and block leaders.
fn discover(dc: &mut DecodeCache, entries: &BTreeMap<u32, bool>) -> (BTreeSet<u32>, BTreeSet<u32>) {
    let mut leaders: BTreeSet<u32> = entries.keys().copied().collect();
    let mut reachable: BTreeSet<u32> = BTreeSet::new();
    let mut queue: VecDeque<u32> = leaders.iter().copied().collect();
    let mut scanned: BTreeSet<u32> = BTreeSet::new();
    while let Some(leader) = queue.pop_front() {
        if !scanned.insert(leader) {
            continue;
        }
        let mut pc = leader;
        loop {
            if pc != leader && reachable.contains(&pc) {
                // Join point: a second path falls into an already
                // scanned run, so the target must start its own block.
                if leaders.insert(pc) {
                    queue.push_back(pc);
                }
                break;
            }
            reachable.insert(pc);
            let Some(instr) = decode_at(dc, pc) else {
                break; // illegal or off the image; diagnosed by `materialize`
            };
            let step = flow(pc, instr);
            for t in step.leaders().into_iter().flatten() {
                if target_ok(dc, t) && leaders.insert(t) {
                    queue.push_back(t);
                }
            }
            if step != Flow::Next {
                break;
            }
            pc = pc.wrapping_add(4);
        }
    }
    (leaders, reachable)
}

/// Phase B: blocks with per-edge costs, and the call-site table.
fn materialize(
    dc: &mut DecodeCache,
    cost: &CostModel,
    leaders: &BTreeSet<u32>,
    reachable: &BTreeSet<u32>,
) -> (BTreeMap<u32, Block>, BTreeMap<u32, (u32, u32)>) {
    let mut blocks: BTreeMap<u32, Block> = BTreeMap::new();
    let mut call_conts: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    for &leader in leaders {
        if !reachable.contains(&leader) {
            continue;
        }
        let mut block = Block {
            start: leader,
            instrs: Vec::new(),
            succs: Vec::new(),
            illegal_at: None,
            is_ret: false,
        };
        let mut pc = leader;
        loop {
            let Some(instr) = decode_at(dc, pc) else {
                block.illegal_at = Some(pc);
                break;
            };
            block.instrs.push((pc, instr));
            match flow(pc, instr) {
                Flow::Branch { taken, fall } => {
                    if target_ok(dc, taken) {
                        block.succs.push((taken, cost.branch_taken));
                    } else {
                        block.illegal_at = Some(pc);
                    }
                    if target_ok(dc, fall) {
                        block.succs.push((fall, cost.branch_not_taken));
                    }
                    break;
                }
                Flow::Jump { target, cont } => {
                    if target_ok(dc, target) {
                        block.succs.push((target, cost.jump));
                        if let Some(cont) = cont.filter(|&c| target_ok(dc, c)) {
                            call_conts.insert(leader, (target, cont));
                        }
                    } else {
                        block.illegal_at = Some(pc);
                    }
                    break;
                }
                Flow::Indirect { ret } => {
                    block.is_ret = ret;
                    break;
                }
                Flow::Stop => break,
                Flow::Next => {}
            }
            pc = pc.wrapping_add(4);
            if leaders.contains(&pc) {
                block.succs.push((pc, 0)); // plain fallthrough
                break;
            }
        }
        blocks.insert(leader, block);
    }
    (blocks, call_conts)
}

/// Resolves the call/return idiom (context-insensitive): a `ret` returns to
/// the continuation of every call site whose callee body reaches it. The
/// body walk steps *over* nested calls (call block -> its own continuation)
/// so helper code is attributed to the helper, not inlined into the caller.
fn resolve_returns(cfg: &mut Cfg) {
    let callees: BTreeSet<u32> = cfg.call_conts.values().map(|&(f, _)| f).collect();
    let mut ret_edges: Vec<(u32, u32)> = Vec::new();
    for &f in &callees {
        let mut body: BTreeSet<u32> = BTreeSet::new();
        let mut q: VecDeque<u32> = VecDeque::new();
        q.push_back(f);
        while let Some(b) = q.pop_front() {
            if !cfg.blocks.contains_key(&b) || !body.insert(b) {
                continue;
            }
            let blk = &cfg.blocks[&b];
            if blk.is_ret {
                continue;
            }
            if let Some(&(_, cont)) = cfg.call_conts.get(&b) {
                q.push_back(cont);
            } else {
                for &(s, _) in &blk.succs {
                    q.push_back(s);
                }
            }
        }
        let conts: Vec<u32> = cfg
            .call_conts
            .values()
            .filter(|&&(t, _)| t == f)
            .map(|&(_, c)| c)
            .collect();
        for &b in &body {
            if cfg.blocks[&b].is_ret {
                for &c in &conts {
                    if cfg.blocks.contains_key(&c) {
                        ret_edges.push((b, c));
                    }
                }
            }
        }
        cfg.bodies.insert(f, body);
    }
    for (b, c) in ret_edges {
        let blk = cfg.blocks.get_mut(&b).unwrap();
        if !blk.succs.iter().any(|&(s, _)| s == c) {
            // The `jalr` pipeline cost is charged in the ret block's
            // body, so the resolved return edge itself is free.
            blk.succs.push((c, 0));
        }
    }
}

/// Illegal words, jumps the analysis cannot follow, and dead code.
fn structural_findings(cfg: &Cfg, image: &Image, dc: &mut DecodeCache) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for block in cfg.blocks.values() {
        if let Some(pc) = block.illegal_at {
            let message = if dc.covers(pc) {
                match word_at(image, pc) {
                    Some(w) => format!("illegal instruction word 0x{w:08x}"),
                    None => "execution runs off the end of the image into zeroed \
                             instruction memory"
                        .to_string(),
                }
            } else {
                "control flow leaves instruction memory".to_string()
            };
            diags.push(Diagnostic {
                severity: Severity::Error,
                check: Check::Illegal,
                pc,
                message,
                path: cfg.path_to(block.start),
            });
        }
        if let Some(&(pc, instr)) = block.instrs.last() {
            // A `ret` with resolved `jal ra` call sites has its return
            // edges followed: nothing to warn about.
            let followed = block.is_ret && !block.succs.is_empty();
            if matches!(instr, Instr::Jalr { .. } | Instr::Mret) && !followed {
                let what = if matches!(instr, Instr::Mret) {
                    "mret returns to a runtime-dependent PC"
                } else if block.is_ret {
                    "ret has no recognized `jal ra` call site"
                } else {
                    "indirect jump target is runtime-dependent"
                };
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    check: Check::Flow,
                    pc,
                    message: format!("{what}; the analysis does not follow it"),
                    path: cfg.path_to(block.start),
                });
            }
        }
    }
    // Dead code: decodable words nothing reaches. Reported once per
    // maximal run to keep reports readable.
    let mut run: Option<(u32, u32)> = None; // (start, instructions)
    let mut flush = |run: Option<(u32, u32)>| {
        if let Some((start, len)) = run {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                check: Check::Dead,
                pc: start,
                message: format!(
                    "unreachable code ({len} instruction(s) no path executes; \
                     data in the text section also looks like this)"
                ),
                path: Vec::new(),
            });
        }
    };
    let mut pc = image.base();
    let image_end = image.base() + image.size_bytes();
    while pc < image_end {
        if decode_at(dc, pc).is_some() && !cfg.reachable.contains(&pc) {
            run = Some(run.map_or((pc, 1), |(start, len)| (start, len + 1)));
        } else {
            flush(run.take());
        }
        pc += 4;
    }
    flush(run);
    diags
}

fn decode_at(dc: &mut DecodeCache, pc: u32) -> Option<Instr> {
    if dc.covers(pc) {
        dc.get(pc)
    } else {
        None
    }
}

fn target_ok(dc: &DecodeCache, t: u32) -> bool {
    t.is_multiple_of(4) && dc.covers(t)
}

fn word_at(image: &Image, pc: u32) -> Option<u32> {
    let off = pc.checked_sub(image.base())? / 4;
    image.words().get(off as usize).copied()
}

fn label_map(image: &Image) -> BTreeMap<u32, String> {
    let mut map: BTreeMap<u32, String> = BTreeMap::new();
    for (name, addr) in image.symbols() {
        match map.entry(addr) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(name.to_string());
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                if name < o.get().as_str() {
                    o.insert(name.to_string());
                }
            }
        }
    }
    map
}

fn bfs_path(
    blocks: &BTreeMap<u32, Block>,
    entries: impl Iterator<Item = u32>,
    target: u32,
) -> Vec<u32> {
    let mut pred: BTreeMap<u32, u32> = BTreeMap::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for e in entries {
        if seen.insert(e) {
            queue.push_back(e);
        }
    }
    let roots = seen.clone();
    while let Some(at) = queue.pop_front() {
        if at == target {
            let mut path = vec![at];
            let mut cur = at;
            while let Some(&p) = pred.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return path;
        }
        let Some(block) = blocks.get(&at) else {
            continue;
        };
        for &(s, _) in &block.succs {
            if seen.insert(s) && !roots.contains(&s) {
                pred.insert(s, at);
                queue.push_back(s);
            } else if !pred.contains_key(&s) && seen.insert(s) {
                queue.push_back(s);
            }
        }
    }
    Vec::new()
}

/// Strongly connected components (iterative Tarjan), in discovery order.
pub(super) fn sccs(blocks: &BTreeMap<u32, Block>) -> Vec<Vec<u32>> {
    #[derive(Default, Clone)]
    struct Node {
        index: Option<u32>,
        lowlink: u32,
        on_stack: bool,
    }
    let mut nodes: BTreeMap<u32, Node> = blocks.keys().map(|&k| (k, Node::default())).collect();
    let mut index = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    let mut out: Vec<Vec<u32>> = Vec::new();
    for &root in blocks.keys() {
        if nodes[&root].index.is_some() {
            continue;
        }
        // (block, next successor slot) call stack.
        let mut call: Vec<(u32, usize)> = vec![(root, 0)];
        while let Some(&mut (at, ref mut next)) = call.last_mut() {
            if *next == 0 {
                let n = nodes.get_mut(&at).unwrap();
                n.index = Some(index);
                n.lowlink = index;
                n.on_stack = true;
                index += 1;
                stack.push(at);
            }
            let succs = &blocks[&at].succs;
            if *next < succs.len() {
                let (s, _) = succs[*next];
                *next += 1;
                if !blocks.contains_key(&s) {
                    continue;
                }
                match nodes[&s].index {
                    None => call.push((s, 0)),
                    Some(si) => {
                        if nodes[&s].on_stack {
                            let low = nodes[&at].lowlink.min(si);
                            nodes.get_mut(&at).unwrap().lowlink = low;
                        }
                    }
                }
            } else {
                let at_low = nodes[&at].lowlink;
                if nodes[&at].index == Some(at_low) {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        nodes.get_mut(&w).unwrap().on_stack = false;
                        comp.push(w);
                        if w == at {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    let low = nodes[&parent].lowlink.min(at_low);
                    nodes.get_mut(&parent).unwrap().lowlink = low;
                }
            }
        }
    }
    out
}

/// Finds any cycle whose nodes all lie in `allowed`, returned as the cycle's
/// block PCs starting at its smallest member. `None` if the subgraph is
/// acyclic.
pub(super) fn find_cycle(
    blocks: &BTreeMap<u32, Block>,
    allowed: &BTreeSet<u32>,
) -> Option<Vec<u32>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        New,
        Active,
        Done,
    }
    let mut marks: BTreeMap<u32, Mark> = allowed.iter().map(|&b| (b, Mark::New)).collect();
    for &root in allowed {
        if marks[&root] != Mark::New {
            continue;
        }
        let mut path: Vec<(u32, usize)> = vec![(root, 0)];
        marks.insert(root, Mark::Active);
        while let Some(&mut (at, ref mut next)) = path.last_mut() {
            let succs = &blocks[&at].succs;
            if *next < succs.len() {
                let (s, _) = succs[*next];
                *next += 1;
                if !allowed.contains(&s) {
                    continue;
                }
                match marks[&s] {
                    Mark::Active => {
                        // Found: unwind the explicit stack back to `s`.
                        let mut cycle: Vec<u32> = path.iter().map(|&(b, _)| b).collect();
                        let start = cycle.iter().position(|&b| b == s).unwrap();
                        cycle.drain(..start);
                        let min = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, b)| b)
                            .map(|(i, _)| i)
                            .unwrap();
                        cycle.rotate_left(min);
                        return Some(cycle);
                    }
                    Mark::New => {
                        marks.insert(s, Mark::Active);
                        path.push((s, 0));
                    }
                    Mark::Done => {}
                }
            } else {
                marks.insert(at, Mark::Done);
                path.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::absint;
    use crate::analyze::fixtures::*;
    use crate::asm::assemble;
    use crate::cpu::{Cpu, RamBus, StepResult};
    use crate::isa::{decode, encode, AluOp, BranchOp, CsrOp, CsrSrc};
    use proptest::prelude::*;
    use rosebud_apps::firewall::FIREWALL_ASM;
    use rosebud_apps::forwarder::{
        duty_cycle_forwarder_asm, watchdog_forwarder_asm, FORWARDER_ASM, FORWARDER_SINGLE_PORT_ASM,
    };
    use rosebud_apps::host_dma::host_dma_forwarder_asm;
    use rosebud_apps::pigasus_asm::PIGASUS_HW_ASM;

    /// The graph's own well-formedness, on every firmware the repo ships
    /// and on every entry set the trap-vector iteration visits.
    #[test]
    fn shipped_images_build_well_formed_graphs() {
        let shipped = [
            FORWARDER_ASM.to_string(),
            FORWARDER_SINGLE_PORT_ASM.to_string(),
            watchdog_forwarder_asm(4096),
            duty_cycle_forwarder_asm(2048),
            host_dma_forwarder_asm(65536),
            FIREWALL_ASM.to_string(),
            PIGASUS_HW_ASM.to_string(),
        ];
        let spec = MachineSpec::bare(32768, 1 << 20);
        for src in &shipped {
            let image = assemble(src).unwrap();
            let mut dc = DecodeCache::new(spec.imem_bytes as usize);
            dc.predecode(image.base(), image.words());
            let mut entries = BTreeMap::from([(image.base(), false)]);
            loop {
                let (cfg, _) = build(&image, &mut dc, &spec.cost, &entries);
                assert_well_formed(&cfg);
                let states = absint::solve(&spec, &cfg);
                let (_, facts) = absint::report(&spec, &cfg, &states);
                let known = entries.len();
                entries.extend(facts.trap_vectors.iter().map(|&v| (v, true)));
                if entries.len() == known {
                    break;
                }
            }
        }
    }

    fn assert_well_formed(cfg: &Cfg) {
        let mut covered: BTreeSet<u32> = BTreeSet::new();
        for (&start, block) in &cfg.blocks {
            assert_eq!(block.start, start);
            for &(s, _) in &block.succs {
                assert!(
                    cfg.blocks.contains_key(&s),
                    "successor 0x{s:x} of block 0x{start:x} is not a block leader"
                );
            }
            for pc in block
                .instrs
                .iter()
                .map(|&(pc, _)| pc)
                .chain(block.illegal_at)
            {
                assert!(covered.insert(pc), "0x{pc:x} sits in two blocks");
            }
        }
        assert_eq!(
            covered, cfg.reachable,
            "blocks do not tile the reachable set"
        );
        for (call, &(callee, cont)) in &cfg.call_conts {
            assert!(cfg.blocks.contains_key(call));
            assert!(cfg.blocks.contains_key(&callee), "callee 0x{callee:x}");
            assert!(cfg.blocks.contains_key(&cont), "continuation 0x{cont:x}");
            assert!(cfg.bodies.contains_key(&callee));
        }
        for &entry in cfg.entries.keys() {
            assert!(cfg.blocks.contains_key(&entry));
        }
    }

    fn reg() -> impl Strategy<Value = Reg> {
        (0u8..32).prop_map(Reg::new)
    }

    /// Every control transfer `tests/prop_isa.rs` generates (same operand
    /// ranges), and a sample of what is not one.
    fn instr() -> impl Strategy<Value = Instr> {
        let branch_op = prop_oneof![
            Just(BranchOp::Eq),
            Just(BranchOp::Ne),
            Just(BranchOp::Lt),
            Just(BranchOp::Ge),
            Just(BranchOp::Ltu),
            Just(BranchOp::Geu)
        ];
        prop_oneof![
            (reg(), (-(1i32 << 19)..(1 << 19)).prop_map(|x| x * 2))
                .prop_map(|(rd, imm)| Instr::Jal { rd, imm }),
            (reg(), reg(), -2048i32..2048).prop_map(|(rd, rs1, imm)| Instr::Jalr { rd, rs1, imm }),
            Just(Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                imm: 0
            }),
            (
                branch_op,
                reg(),
                reg(),
                (-2048i32..2048).prop_map(|x| x * 2)
            )
                .prop_map(|(op, rs1, rs2, imm)| Instr::Branch { op, rs1, rs2, imm }),
            Just(Instr::Ebreak),
            Just(Instr::Mret),
            Just(Instr::Ecall),
            Just(Instr::Wfi),
            Just(Instr::Fence),
            (reg(), reg(), reg()).prop_map(|(rd, rs1, rs2)| Instr::Op {
                op: AluOp::Add,
                rd,
                rs1,
                rs2
            }),
            (reg(), -(1i32 << 19)..(1 << 19)).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
            (reg(), reg()).prop_map(|(rd, rs)| Instr::Csr {
                op: CsrOp::Rw,
                rd,
                csr: 0x340, // mscratch
                src: CsrSrc::Reg(rs)
            }),
        ]
    }

    proptest! {
        /// `flow` against the simulator: wherever one `Cpu::step` takes the
        /// PC, `flow` named that PC as a static successor (or named none,
        /// for the runtime-dependent transfers) — and the cycles the step
        /// charged are the cycles `materialize` puts on that edge.
        #[test]
        fn flow_agrees_with_cpu_step(
            instr in instr(),
            a in any::<u32>(),
            b in any::<u32>(),
            same in any::<bool>(),
        ) {
            const PC: u32 = 0x4000;
            let word = encode(instr).unwrap();
            let instr = decode(word).unwrap();
            let mut bus = RamBus::new(0x8000);
            bus.load_image(PC, &[word]);
            let mut cpu = Cpu::new(PC);
            for r in 1..32u8 {
                // Two values spread over the registers, so comparisons go
                // both ways; `same` makes the equal case common.
                let v = if same || r % 2 == 0 { a } else { b };
                cpu.set_reg(Reg::new(r), v);
            }
            let before = cpu.clone();
            let result = cpu.step(&mut bus);
            let cost = CostModel::default();
            match flow(PC, instr) {
                Flow::Next => prop_assert_eq!(cpu.pc(), PC + 4),
                Flow::Branch { taken, fall } => {
                    prop_assert_eq!(fall, PC + 4);
                    prop_assert!(cpu.pc() == taken || cpu.pc() == fall);
                    if taken != fall {
                        let edge = if cpu.pc() == taken {
                            cost.branch_taken
                        } else {
                            cost.branch_not_taken
                        };
                        prop_assert_eq!(result, StepResult::Executed { cycles: edge });
                    }
                }
                Flow::Jump { target, cont } => {
                    prop_assert_eq!(cpu.pc(), target);
                    prop_assert_eq!(result, StepResult::Executed { cycles: cost.jump });
                    if let Some(cont) = cont {
                        prop_assert_eq!(cpu.reg(Reg::RA), cont);
                        prop_assert_eq!(cont, PC + 4);
                    }
                }
                Flow::Indirect { ret } => {
                    let is_jalr = matches!(instr, Instr::Jalr { .. });
                    prop_assert!(is_jalr);
                    if ret {
                        prop_assert_eq!(cpu.pc(), before.reg(Reg::RA) & !1);
                        prop_assert_eq!(cpu.reg(Reg::RA), before.reg(Reg::RA));
                    }
                }
                Flow::Stop => match instr {
                    Instr::Ebreak => prop_assert_eq!(result, StepResult::Break),
                    other => prop_assert_eq!(other, Instr::Mret),
                },
            }
        }
    }

    #[test]
    fn illegal_and_dead_code_are_reported() {
        let r = check(
            MachineSpec::bare(4096, 65536),
            "
                j good
                .word 0x00000013    # decodes (nop) but nothing reaches it
            good:
                .word 0xffffffff    # reachable and does not decode
            ",
        );
        assert!(
            has(&r, Check::Illegal, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
        assert!(has(&r, Check::Dead, Severity::Warning));
        // Falling off the end of the image is also illegal.
        let r = check(MachineSpec::bare(4096, 65536), "nop");
        assert!(has(&r, Check::Illegal, Severity::Error));
    }

    #[test]
    fn helper_call_and_return_are_followed() {
        let r = check(
            MachineSpec::bare(4096, 65536),
            "
                li sp, 0x8000
                li a0, 5
                call double
                call double
                ebreak
            double:
                add a0, a0, a0
                ret
            ",
        );
        // No unreachable-code or unresolved-flow noise for the helper.
        assert!(
            !has(&r, Check::Dead, Severity::Warning),
            "{:#?}",
            r.diagnostics
        );
        assert!(
            !has(&r, Check::Flow, Severity::Warning),
            "{:#?}",
            r.diagnostics
        );
        assert!(!r.has_errors(), "{:#?}", r.diagnostics);
    }
}
