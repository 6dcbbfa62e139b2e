// rowfpga-lint: no-panic
//! Native text format for netlists.
//!
//! A minimal, line-oriented exchange format:
//!
//! ```text
//! # comment
//! .cell <name> input|output|seq|comb<k>
//! .net  <name> <driver-cell> <sink-cell>:<pin> [<sink-cell>:<pin> ...]
//! ```
//!
//! Sink pin indices are absolute (see [`crate::PinRef`]). The writer
//! ([`write_netlist`]) produces exactly this format, and
//! `parse_netlist(&write_netlist(&nl))` round-trips any netlist.

use std::error::Error;
use std::fmt;

use crate::cell::{CellKind, MAX_FANIN};
use crate::netlist::{BuildNetlistError, Netlist};

/// Errors raised by [`parse_netlist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseNetlistError {
    /// A line had an unknown directive or too few fields.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A `.net` line referenced an undeclared cell.
    UnknownCell {
        /// 1-based line number.
        line: usize,
        /// The unresolved name.
        name: String,
    },
    /// The connectivity was structurally invalid.
    Build(BuildNetlistError),
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNetlistError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseNetlistError::UnknownCell { line, name } => {
                write!(f, "line {line}: unknown cell `{name}`")
            }
            ParseNetlistError::Build(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl Error for ParseNetlistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseNetlistError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildNetlistError> for ParseNetlistError {
    fn from(e: BuildNetlistError) -> Self {
        ParseNetlistError::Build(e)
    }
}

fn parse_kind(s: &str, line: usize) -> Result<CellKind, ParseNetlistError> {
    match s {
        "input" => Ok(CellKind::Input),
        "output" => Ok(CellKind::Output),
        "seq" => Ok(CellKind::Seq),
        _ => {
            if let Some(k) = s.strip_prefix("comb") {
                let inputs: usize = k.parse().map_err(|_| ParseNetlistError::Malformed {
                    line,
                    reason: format!("bad comb fan-in `{k}`"),
                })?;
                if !(1..=MAX_FANIN).contains(&inputs) {
                    return Err(ParseNetlistError::Malformed {
                        line,
                        reason: format!("comb fan-in {inputs} out of range 1..={MAX_FANIN}"),
                    });
                }
                Ok(CellKind::comb(inputs))
            } else {
                Err(ParseNetlistError::Malformed {
                    line,
                    reason: format!("unknown cell kind `{s}`"),
                })
            }
        }
    }
}

/// Parses the native netlist format.
///
/// # Errors
///
/// Returns a [`ParseNetlistError`] describing the first offending line, or a
/// wrapped [`BuildNetlistError`] if the file parses but the design is
/// structurally invalid (dangling inputs, double-driven pins, …).
pub fn parse_netlist(text: &str) -> Result<Netlist, ParseNetlistError> {
    // (line number, net name, driver cell, sinks as (cell, pin)).
    type PendingNet = (usize, String, String, Vec<(String, u8)>);
    let mut b = Netlist::builder();
    let mut pending_nets: Vec<PendingNet> = Vec::new();
    // Cell name -> id of its first declaration. Nets may be declared before
    // the cells they reference, so connectivity is resolved after the scan.
    let mut names: std::collections::BTreeMap<String, crate::CellId> =
        std::collections::BTreeMap::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some(".cell") => {
                let name = fields.next().ok_or_else(|| ParseNetlistError::Malformed {
                    line: line_no,
                    reason: ".cell needs a name".into(),
                })?;
                let kind_str = fields.next().ok_or_else(|| ParseNetlistError::Malformed {
                    line: line_no,
                    reason: ".cell needs a kind".into(),
                })?;
                let kind = parse_kind(kind_str, line_no)?;
                let id = b.add_cell(name, kind);
                names.entry(name.to_owned()).or_insert(id);
            }
            Some(".net") => {
                let name = fields.next().ok_or_else(|| ParseNetlistError::Malformed {
                    line: line_no,
                    reason: ".net needs a name".into(),
                })?;
                let driver = fields.next().ok_or_else(|| ParseNetlistError::Malformed {
                    line: line_no,
                    reason: ".net needs a driver".into(),
                })?;
                let mut sinks = Vec::new();
                for f in fields {
                    let (cell, pin) =
                        f.split_once(':')
                            .ok_or_else(|| ParseNetlistError::Malformed {
                                line: line_no,
                                reason: format!("sink `{f}` is not <cell>:<pin>"),
                            })?;
                    let pin: u8 = pin.parse().map_err(|_| ParseNetlistError::Malformed {
                        line: line_no,
                        reason: format!("bad pin index in `{f}`"),
                    })?;
                    sinks.push((cell.to_owned(), pin));
                }
                pending_nets.push((line_no, name.to_owned(), driver.to_owned(), sinks));
            }
            Some(other) => {
                return Err(ParseNetlistError::Malformed {
                    line: line_no,
                    reason: format!("unknown directive `{other}`"),
                })
            }
            None => continue,
        }
    }

    for (line, name, driver, sinks) in pending_nets {
        let d = *names
            .get(&driver)
            .ok_or_else(|| ParseNetlistError::UnknownCell {
                line,
                name: driver.clone(),
            })?;
        let mut sink_refs = Vec::with_capacity(sinks.len());
        for (cell, pin) in sinks {
            let c = *names
                .get(&cell)
                .ok_or_else(|| ParseNetlistError::UnknownCell {
                    line,
                    name: cell.clone(),
                })?;
            sink_refs.push((c, pin));
        }
        b.connect(name, d, sink_refs)?;
    }

    Ok(b.build()?)
}

/// Serializes a netlist in the native format parsed by [`parse_netlist`].
pub fn write_netlist(netlist: &Netlist) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (_, cell) in netlist.cells() {
        let _ = writeln!(out, ".cell {} {}", cell.name(), cell.kind());
    }
    for (_, net) in netlist.nets() {
        let _ = write!(
            out,
            ".net {} {}",
            net.name(),
            netlist.cell(net.driver().cell).name()
        );
        for s in net.sinks() {
            let _ = write!(out, " {}:{}", netlist.cell(s.cell).name(), s.pin);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a tiny design
.cell a input
.cell g comb2
.cell ff seq
.cell q output

.net na a g:1
.net nf ff g:2
.net ng g q:0 ff:1
";

    #[test]
    fn parses_sample() {
        let nl = parse_netlist(SAMPLE).unwrap();
        assert_eq!(nl.num_cells(), 4);
        assert_eq!(nl.num_nets(), 3);
        assert_eq!(
            nl.cell(nl.cell_by_name("g").unwrap()).kind(),
            CellKind::comb(2)
        );
    }

    #[test]
    fn round_trips() {
        let nl = parse_netlist(SAMPLE).unwrap();
        let text = write_netlist(&nl);
        let nl2 = parse_netlist(&text).unwrap();
        assert_eq!(nl.num_cells(), nl2.num_cells());
        assert_eq!(nl.num_nets(), nl2.num_nets());
        for (id, net) in nl.nets() {
            let other = nl2.net_by_name(net.name()).unwrap();
            assert_eq!(nl2.net(other).fanout(), net.fanout());
            let _ = id;
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let nl = parse_netlist("# only a comment\n\n.cell a input # trailing\n").unwrap();
        assert_eq!(nl.num_cells(), 1);
    }

    #[test]
    fn reports_unknown_directive_with_line() {
        let err = parse_netlist(".cell a input\n.wire x\n").unwrap_err();
        assert!(matches!(err, ParseNetlistError::Malformed { line: 2, .. }));
    }

    #[test]
    fn reports_unknown_cell() {
        let err = parse_netlist(".cell a input\n.net n a ghost:1\n").unwrap_err();
        assert!(matches!(err, ParseNetlistError::UnknownCell { ref name, .. } if name == "ghost"));
    }

    #[test]
    fn reports_bad_kind_and_bad_pin() {
        assert!(matches!(
            parse_netlist(".cell a blob\n").unwrap_err(),
            ParseNetlistError::Malformed { .. }
        ));
        assert!(matches!(
            parse_netlist(".cell a input\n.cell g comb2\n.net n a g:x\n").unwrap_err(),
            ParseNetlistError::Malformed { .. }
        ));
        assert!(matches!(
            parse_netlist(".cell a comb99\n").unwrap_err(),
            ParseNetlistError::Malformed { .. }
        ));
    }

    #[test]
    fn nets_may_precede_their_cells() {
        let nl = parse_netlist(".net n a g:1\n.cell a input\n.cell g comb1\n").unwrap();
        assert_eq!(nl.num_nets(), 1);
        assert_eq!(nl.net(nl.net_by_name("n").unwrap()).fanout(), 1);
    }

    #[test]
    fn first_declaration_wins_on_duplicate_names() {
        // duplicates are an error at build, reported as such
        let err = parse_netlist(".cell a input\n.cell a output\n").unwrap_err();
        assert!(matches!(err, ParseNetlistError::Build(_)));
    }

    #[test]
    fn build_errors_are_wrapped() {
        // dangling input pin on g
        let err = parse_netlist(".cell a input\n.cell g comb2\n.net n a g:1\n").unwrap_err();
        assert!(matches!(err, ParseNetlistError::Build(_)));
        assert!(err.source().is_some());
    }
}
