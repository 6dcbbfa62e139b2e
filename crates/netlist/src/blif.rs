// rowfpga-lint: no-panic
//! Parser for a subset of Berkeley BLIF.
//!
//! Technology-mapped MCNC benchmarks (the paper's s1, cse, ex1, bw, s1a) are
//! distributed in BLIF. This parser accepts the structural core of the
//! format:
//!
//! * `.model`, `.inputs`, `.outputs`, `.end`
//! * `.names <in...> <out>` — mapped to a combinational cell whose fan-in is
//!   the number of input signals; the logic cover rows that follow are
//!   accepted and ignored (layout only needs connectivity);
//! * `.latch <in> <out> [<type> <control>] [<init>]` — mapped to a
//!   sequential cell;
//! * `\` line continuations and `#` comments.
//!
//! Each signal becomes a net; each `.outputs` signal additionally grows a
//! primary-output cell named `po_<signal>`. Signals that are driven but
//! never consumed are dropped (their drivers remain). A `.names` with more
//! inputs than [`MAX_FANIN`] is rejected: the netlist must already be
//! technology-mapped to module-sized cells.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::cell::{CellKind, MAX_FANIN};
use crate::ids::{CellId, PinIndex};
use crate::netlist::{BuildNetlistError, Netlist};

/// Errors raised by [`parse_blif`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseBlifError {
    /// A directive was malformed.
    Malformed {
        /// 1-based (logical) line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A `.names` had more inputs than a logic module provides; the design
    /// is not technology-mapped for this architecture.
    NotMapped {
        /// 1-based line number.
        line: usize,
        /// The output signal of the offending `.names`.
        signal: String,
        /// Its fan-in.
        fanin: usize,
    },
    /// Two constructs drive the same signal.
    MultipleDrivers {
        /// The doubly-driven signal.
        signal: String,
    },
    /// A signal is consumed but never driven.
    UndrivenSignal {
        /// The undriven signal.
        signal: String,
    },
    /// The connectivity was structurally invalid.
    Build(BuildNetlistError),
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBlifError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            ParseBlifError::NotMapped {
                line,
                signal,
                fanin,
            } => write!(
                f,
                "line {line}: `.names {signal}` has fan-in {fanin}, exceeding the module limit of {MAX_FANIN}; map the design first"
            ),
            ParseBlifError::MultipleDrivers { signal } => {
                write!(f, "signal `{signal}` has multiple drivers")
            }
            ParseBlifError::UndrivenSignal { signal } => {
                write!(f, "signal `{signal}` is consumed but never driven")
            }
            ParseBlifError::Build(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl Error for ParseBlifError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseBlifError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildNetlistError> for ParseBlifError {
    fn from(e: BuildNetlistError) -> Self {
        ParseBlifError::Build(e)
    }
}

/// Joins `\`-continued lines and strips comments, yielding
/// `(first_line_number, logical_line)` pairs.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut continuing = false;
    for (i, raw) in text.lines().enumerate() {
        let no_comment = raw.split('#').next().unwrap_or("");
        let (content, continues) = match no_comment.trim_end().strip_suffix('\\') {
            Some(stripped) => (stripped.trim(), true),
            None => (no_comment.trim(), false),
        };
        if continuing {
            if let Some(last) = out.last_mut() {
                last.1.push(' ');
                last.1.push_str(content);
            }
        } else if !content.is_empty() || continues {
            out.push((i + 1, content.to_owned()));
        }
        continuing = continues;
    }
    out.retain(|(_, l)| !l.trim().is_empty());
    out
}

/// Parses a technology-mapped BLIF model into a [`Netlist`].
///
/// # Errors
///
/// Returns a [`ParseBlifError`] for malformed directives, unmapped logic,
/// multiply-driven or undriven signals, or structurally invalid
/// connectivity.
pub fn parse_blif(text: &str) -> Result<Netlist, ParseBlifError> {
    struct Driver {
        kind: CellKind,
        inputs: Vec<String>,
    }

    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    // signal -> its driving construct
    let mut drivers: BTreeMap<String, Driver> = BTreeMap::new();
    let mut driver_order: Vec<String> = Vec::new();

    for (line, text) in logical_lines(text) {
        let mut f = text.split_whitespace();
        match f.next() {
            Some(".model") | Some(".end") | Some(".clock") => {}
            Some(".inputs") => inputs.extend(f.map(str::to_owned)),
            Some(".outputs") => outputs.extend(f.map(str::to_owned)),
            Some(".names") => {
                let signals: Vec<String> = f.map(str::to_owned).collect();
                let Some((out_sig, in_sigs)) = signals.split_last() else {
                    return Err(ParseBlifError::Malformed {
                        line,
                        reason: ".names needs at least an output signal".into(),
                    });
                };
                if in_sigs.len() > MAX_FANIN {
                    return Err(ParseBlifError::NotMapped {
                        line,
                        signal: out_sig.clone(),
                        fanin: in_sigs.len(),
                    });
                }
                // A 0-input .names is a constant source; model it as a
                // primary-input-like driver.
                let kind = if in_sigs.is_empty() {
                    CellKind::Input
                } else {
                    CellKind::comb(in_sigs.len())
                };
                if drivers
                    .insert(
                        out_sig.clone(),
                        Driver {
                            kind,
                            inputs: in_sigs.to_vec(),
                        },
                    )
                    .is_some()
                {
                    return Err(ParseBlifError::MultipleDrivers {
                        signal: out_sig.clone(),
                    });
                }
                driver_order.push(out_sig.clone());
            }
            Some(".latch") => {
                let args: Vec<&str> = f.collect();
                if args.len() < 2 {
                    return Err(ParseBlifError::Malformed {
                        line,
                        reason: ".latch needs input and output signals".into(),
                    });
                }
                let (in_sig, out_sig) = (args[0], args[1]);
                if drivers
                    .insert(
                        out_sig.to_owned(),
                        Driver {
                            kind: CellKind::Seq,
                            inputs: vec![in_sig.to_owned()],
                        },
                    )
                    .is_some()
                {
                    return Err(ParseBlifError::MultipleDrivers {
                        signal: out_sig.to_owned(),
                    });
                }
                driver_order.push(out_sig.to_owned());
            }
            Some(directive) if directive.starts_with('.') => {
                // Other BLIF extensions (.default_input_arrival, …) are
                // irrelevant to layout; skip them.
            }
            Some(_) => {
                // Cover rows of the preceding .names; connectivity only.
            }
            None => continue,
        }
    }

    for sig in &inputs {
        if drivers
            .insert(
                sig.clone(),
                Driver {
                    kind: CellKind::Input,
                    inputs: Vec::new(),
                },
            )
            .is_some()
        {
            return Err(ParseBlifError::MultipleDrivers {
                signal: sig.clone(),
            });
        }
        driver_order.push(sig.clone());
    }

    // Every consumed signal must be driven.
    for d in drivers.values() {
        for s in &d.inputs {
            if !drivers.contains_key(s) {
                return Err(ParseBlifError::UndrivenSignal { signal: s.clone() });
            }
        }
    }
    for s in &outputs {
        if !drivers.contains_key(s) {
            return Err(ParseBlifError::UndrivenSignal { signal: s.clone() });
        }
    }

    // Build cells: one per driven signal, plus a primary-output cell per
    // .outputs signal.
    let mut b = Netlist::builder();
    let mut cell_of: BTreeMap<&str, CellId> = BTreeMap::new();
    for sig in &driver_order {
        let id = b.add_cell(sig.clone(), drivers[sig.as_str()].kind);
        cell_of.insert(sig, id);
    }
    let mut po_cells: Vec<(String, CellId)> = Vec::new();
    for sig in &outputs {
        let id = b.add_cell(format!("po_{sig}"), CellKind::Output);
        po_cells.push((sig.clone(), id));
    }

    // Collect sinks per signal. Input pin order: a cell's i-th declared
    // input signal lands on pin i+1.
    let mut sinks: BTreeMap<&str, Vec<(CellId, PinIndex)>> = BTreeMap::new();
    for sig in &driver_order {
        let d = &drivers[sig.as_str()];
        let cell = cell_of[sig.as_str()];
        for (i, in_sig) in d.inputs.iter().enumerate() {
            sinks
                .entry(in_sig.as_str())
                .or_default()
                .push((cell, (i + 1) as PinIndex));
        }
    }
    for (sig, po) in &po_cells {
        sinks.entry(sig.as_str()).or_default().push((*po, 0));
    }

    for sig in &driver_order {
        let Some(consumers) = sinks.get(sig.as_str()) else {
            continue; // dangling output: dropped
        };
        b.connect(
            sig.clone(),
            cell_of[sig.as_str()],
            consumers.iter().copied(),
        )?;
    }

    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# toy FSM
.model toy
.inputs a b
.outputs y
.names a b t1
11 1
.latch t1 s r NIL 0
.names s a \\
 y
10 1
01 1
.end
";

    #[test]
    fn parses_sample_structure() {
        let nl = parse_blif(SAMPLE).unwrap();
        // cells: a, b (inputs), t1 (comb2), s (seq), y (comb2), po_y
        assert_eq!(nl.num_cells(), 6);
        let s = nl.stats();
        assert_eq!(s.num_inputs, 2);
        assert_eq!(s.num_outputs, 1);
        assert_eq!(s.num_comb, 2);
        assert_eq!(s.num_seq, 1);
        // nets: a, b, t1, s, y — all consumed
        assert_eq!(nl.num_nets(), 5);
        assert_eq!(nl.cell(nl.cell_by_name("s").unwrap()).kind(), CellKind::Seq);
    }

    #[test]
    fn continuation_lines_join() {
        let nl = parse_blif(SAMPLE).unwrap();
        let y = nl.cell_by_name("y").unwrap();
        assert_eq!(nl.cell(y).kind(), CellKind::comb(2));
    }

    #[test]
    fn dangling_driver_is_dropped() {
        let text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a dead\n1 1\n.end\n";
        let nl = parse_blif(text).unwrap();
        assert!(nl.cell_by_name("dead").is_some());
        assert!(nl.net_by_name("dead").is_none());
    }

    #[test]
    fn rejects_unmapped_fanin() {
        let ins: Vec<String> = (0..=MAX_FANIN).map(|i| format!("i{i}")).collect();
        let text = format!(
            ".model m\n.inputs {}\n.outputs y\n.names {} y\n.end\n",
            ins.join(" "),
            ins.join(" ")
        );
        assert!(matches!(
            parse_blif(&text).unwrap_err(),
            ParseBlifError::NotMapped { .. }
        ));
    }

    #[test]
    fn rejects_multiple_drivers() {
        let text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n";
        assert!(matches!(
            parse_blif(text).unwrap_err(),
            ParseBlifError::MultipleDrivers { .. }
        ));
    }

    #[test]
    fn rejects_undriven_signal() {
        let text = ".model m\n.outputs y\n.names ghost y\n1 1\n.end\n";
        assert!(matches!(
            parse_blif(text).unwrap_err(),
            ParseBlifError::UndrivenSignal { .. }
        ));
    }

    #[test]
    fn constant_names_become_sources() {
        let text = ".model m\n.outputs y\n.names y\n1\n.end\n";
        let nl = parse_blif(text).unwrap();
        assert_eq!(
            nl.cell(nl.cell_by_name("y").unwrap()).kind(),
            CellKind::Input
        );
    }

    #[test]
    fn unknown_directives_are_skipped() {
        let text =
            ".model m\n.inputs a\n.outputs y\n.default_input_arrival 0 0\n.names a y\n1 1\n.end\n";
        assert!(parse_blif(text).is_ok());
    }
}
