//! What the analyzer says: diagnostics, WCET summaries, and the two stable
//! renderings (text for the golden snapshots, JSON for machine consumers).

use std::fmt;
use std::fmt::Write as _;

use rosebud_kernel::json::Json;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly intentional; never blocks a load.
    Warning,
    /// A definite bug; blocks the load under `LoadPolicy::Deny`.
    Error,
}

/// Which static check produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// MMIO validity (unknown register / wrong direction / out of window).
    Mmio,
    /// A memory access outside every mapped region.
    Region,
    /// Watchdog liveness (a loop that neither pets nor sleeps).
    Watchdog,
    /// Use of a register no path has initialized.
    Uninit,
    /// `sp`-relative access outside the configured stack region.
    Stack,
    /// Reachable code that does not decode or falls off the image.
    Illegal,
    /// Decodable but unreachable code.
    Dead,
    /// Control flow the analysis cannot follow (indirect jumps, `mret`).
    Flow,
    /// Descriptor/DMA lifecycle violation (typestate automata over the
    /// [`crate::ProtocolSpec`] registers).
    Protocol,
    /// Unsanitized packet bytes reaching a trusted sink (DMA registers,
    /// indirect jump targets, loop bounds).
    Taint,
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Check::Mmio => "mmio",
            Check::Region => "region",
            Check::Watchdog => "watchdog",
            Check::Uninit => "uninit",
            Check::Stack => "stack",
            Check::Illegal => "illegal",
            Check::Dead => "dead-code",
            Check::Flow => "flow",
            Check::Protocol => "protocol",
            Check::Taint => "taint",
        };
        f.write_str(s)
    }
}

/// One structured finding: severity, check class, the PC at fault, and a
/// CFG path witness from the entry point to the offending block.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Which check fired.
    pub check: Check,
    /// The program counter at fault.
    pub pc: u32,
    /// Human-readable description.
    pub message: String,
    /// Block-start PCs of one path from an entry point to the fault
    /// (empty for findings with no meaningful path, e.g. dead code).
    pub path: Vec<u32>,
}

/// Worst-case bound for one loop (identified by its header block).
#[derive(Debug, Clone)]
pub struct LoopBound {
    /// Loop-header block start PC.
    pub header: u32,
    /// Nearest label at the header, if the image has one.
    pub(crate) label: Option<String>,
    /// Worst-case cycles for one iteration (header back to header).
    pub cycles_per_iter: u64,
}

/// WCET summary for one entry point.
#[derive(Debug, Clone)]
pub struct EntryWcet {
    /// Entry PC.
    pub(crate) entry: u32,
    /// Label at the entry, if any.
    pub(crate) label: Option<String>,
    /// Longest acyclic path from the entry, in cycles (loop back edges
    /// excluded; multiply by iteration bounds for loop-carried budgets).
    pub acyclic_cycles: u64,
    /// Per-loop iteration bounds, in header-PC order.
    pub loops: Vec<LoopBound>,
}

/// The analyzer's full output: diagnostics plus WCET bounds.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, sorted by (pc, check) for stable output.
    pub diagnostics: Vec<Diagnostic>,
    /// One WCET summary per entry point.
    pub wcet: Vec<EntryWcet>,
}

impl LintReport {
    /// Whether any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Count of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Count of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Renders the report as stable, diffable text (used for golden lint
    /// snapshots and the `lint` example).
    pub fn render(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "lint report: {name}");
        for w in &self.wcet {
            let label = w
                .label
                .as_deref()
                .map(|l| format!(" <{l}>"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "entry 0x{:08x}{label}: longest acyclic path {} cycles",
                w.entry, w.acyclic_cycles
            );
            for l in &w.loops {
                let label = l
                    .label
                    .as_deref()
                    .map(|l| format!(" <{l}>"))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  loop 0x{:08x}{label}: <= {} cycles/iteration",
                    l.header, l.cycles_per_iter
                );
            }
        }
        for d in &self.diagnostics {
            let sev = match d.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            let _ = writeln!(out, "{sev}[{}]: pc 0x{:08x}: {}", d.check, d.pc, d.message);
            if !d.path.is_empty() {
                let path = d
                    .path
                    .iter()
                    .map(|p| format!("0x{p:08x}"))
                    .collect::<Vec<_>>()
                    .join(" -> ");
                let _ = writeln!(out, "  path: {path}");
            }
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        );
        out
    }

    /// Writes the report into `json` as one object for machine consumers:
    /// one object per diagnostic with check id, severity, PC, and the
    /// CFG-path witness, plus the WCET summaries. The field order and
    /// diagnostic order are stable, so the output is diffable.
    pub fn render_json(&self, name: &str, json: &mut Json) {
        json.object(|o| {
            o.key("name").value(name);
            o.key("errors").value(self.error_count());
            o.key("warnings").value(self.warning_count());
            o.key("wcet").array(|a| {
                for w in &self.wcet {
                    a.object(|o| {
                        o.key("entry").value(w.entry);
                        o.key("label").value(w.label.as_deref());
                        o.key("acyclic_cycles").value(w.acyclic_cycles);
                        o.key("loops").array(|a| {
                            for l in &w.loops {
                                a.object(|o| {
                                    o.key("header").value(l.header);
                                    o.key("label").value(l.label.as_deref());
                                    o.key("cycles_per_iter").value(l.cycles_per_iter);
                                });
                            }
                        });
                    });
                }
            });
            o.key("diagnostics").array(|a| {
                for d in &self.diagnostics {
                    a.object(|o| {
                        o.key("check").value(d.check.to_string().as_str());
                        o.key("severity").value(match d.severity {
                            Severity::Warning => "warning",
                            Severity::Error => "error",
                        });
                        o.key("pc").value(d.pc);
                        o.key("message").value(d.message.as_str());
                        o.key("path").array(|a| {
                            for &p in &d.path {
                                a.value(p);
                            }
                        });
                    });
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::fixtures::*;

    #[test]
    fn report_renders_stably() {
        let r = check(
            devices(),
            "
                li t0, 0x02000000
            poll:
                lw a0, 0x00(t0)
                beqz a0, poll
                ebreak
            ",
        );
        let text = r.render("spin");
        assert!(text.starts_with("lint report: spin\n"), "{text}");
        assert!(text.contains("loop 0x00000008 <poll>"), "{text}");
        assert!(text.contains("warning[watchdog]"), "{text}");
        assert!(text.trim_end().ends_with("warning(s)"), "{text}");
    }

    #[test]
    fn json_report_is_machine_readable() {
        let r = check(
            devices(),
            "
                li t0, 0x02000000
                sw zero, 0x64(t0)
                ebreak
            ",
        );
        let mut json = rosebud_kernel::json::Json::default();
        r.render_json("bad", &mut json);
        let json = json.to_string();
        assert!(json.contains("\"name\":\"bad\""), "{json}");
        assert!(json.contains("\"check\":\"mmio\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"path\":["), "{json}");
    }
}
