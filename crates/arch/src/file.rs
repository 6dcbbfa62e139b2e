// rowfpga-lint: no-panic
//! Text format for architecture descriptions.
//!
//! A minimal line-oriented format so fabrics can be versioned and shared:
//!
//! ```text
//! # rowfpga architecture
//! rows 8
//! cols 20
//! io_columns 2
//! tracks_per_channel 24
//! segmentation actel 7          # or: full | uniform L | mixed L1 L2 … |
//!                               #     explicit B,B|B|…  (breaks per track)
//! verticals longlines 4 3       # or: uniform TRACKS SPAN
//! delay r_wire 2.0              # any DelayParams field; omitted = default
//! ```
//!
//! [`write_architecture`] emits exactly this format and
//! `parse_architecture(&write_architecture(&a))` reproduces the fabric.

use std::error::Error;
use std::fmt;

use crate::architecture::Architecture;
use crate::delay::DelayParams;
use crate::error::BuildArchitectureError;
use crate::segmentation::SegmentationScheme;
use crate::vertical::VerticalScheme;

/// Errors raised by [`parse_architecture`].
#[derive(Clone, Debug, PartialEq)]
pub enum ParseArchitectureError {
    /// A line had an unknown directive or malformed fields.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The description parsed but the fabric is invalid.
    Build(BuildArchitectureError),
}

impl fmt::Display for ParseArchitectureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseArchitectureError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseArchitectureError::Build(e) => write!(f, "invalid architecture: {e}"),
        }
    }
}

impl Error for ParseArchitectureError {}

impl From<BuildArchitectureError> for ParseArchitectureError {
    fn from(e: BuildArchitectureError) -> Self {
        ParseArchitectureError::Build(e)
    }
}

fn bad(line: usize, reason: impl Into<String>) -> ParseArchitectureError {
    ParseArchitectureError::Malformed {
        line,
        reason: reason.into(),
    }
}

fn num<T: std::str::FromStr>(
    line: usize,
    field: &str,
    v: Option<&str>,
) -> Result<T, ParseArchitectureError> {
    let v = v.ok_or_else(|| bad(line, format!("`{field}` needs a value")))?;
    v.parse()
        .map_err(|_| bad(line, format!("bad value `{v}` for `{field}`")))
}

/// Parses an architecture description.
///
/// # Errors
///
/// Returns [`ParseArchitectureError`] for malformed directives or an
/// invalid fabric.
pub fn parse_architecture(text: &str) -> Result<Architecture, ParseArchitectureError> {
    let mut builder = Architecture::builder();
    let mut delay = DelayParams::default();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut f = line.split_whitespace();
        let Some(directive) = f.next() else {
            continue;
        };
        match directive {
            "rows" => builder = builder.rows(num(line_no, "rows", f.next())?),
            "cols" => builder = builder.cols(num(line_no, "cols", f.next())?),
            "io_columns" => builder = builder.io_columns(num(line_no, "io_columns", f.next())?),
            "tracks_per_channel" => {
                builder = builder.tracks_per_channel(num(line_no, "tracks_per_channel", f.next())?)
            }
            "segmentation" => {
                let kind = f
                    .next()
                    .ok_or_else(|| bad(line_no, "`segmentation` needs a scheme"))?;
                let scheme = match kind {
                    "full" => SegmentationScheme::FullLength,
                    "uniform" => SegmentationScheme::Uniform {
                        len: num(line_no, "uniform length", f.next())?,
                    },
                    "mixed" => {
                        let lengths: Result<Vec<usize>, _> =
                            f.map(|x| num(line_no, "mixed length", Some(x))).collect();
                        let lengths = lengths?;
                        if lengths.is_empty() {
                            return Err(bad(line_no, "`mixed` needs at least one length"));
                        }
                        SegmentationScheme::Mixed { lengths }
                    }
                    "actel" => SegmentationScheme::ActelLike {
                        seed: num(line_no, "actel seed", f.next())?,
                    },
                    "explicit" => {
                        let spec = f
                            .next()
                            .ok_or_else(|| bad(line_no, "`explicit` needs track breaks"))?;
                        let tracks: Result<Vec<Vec<usize>>, _> = spec
                            .split('|')
                            .map(|t| {
                                if t.is_empty() {
                                    Ok(Vec::new())
                                } else {
                                    t.split(',')
                                        .map(|b| num(line_no, "break", Some(b)))
                                        .collect()
                                }
                            })
                            .collect();
                        SegmentationScheme::Explicit { tracks: tracks? }
                    }
                    other => return Err(bad(line_no, format!("unknown segmentation `{other}`"))),
                };
                builder = builder.segmentation(scheme);
            }
            "verticals" => {
                let kind = f
                    .next()
                    .ok_or_else(|| bad(line_no, "`verticals` needs a scheme"))?;
                let tracks = num(line_no, "vertical tracks", f.next())?;
                let span = num(line_no, "vertical span", f.next())?;
                let scheme = match kind {
                    "uniform" => VerticalScheme::Uniform {
                        tracks_per_column: tracks,
                        span,
                    },
                    "longlines" => VerticalScheme::WithLongLines {
                        tracks_per_column: tracks,
                        span,
                    },
                    other => return Err(bad(line_no, format!("unknown verticals `{other}`"))),
                };
                builder = builder.verticals(scheme);
            }
            "delay" => {
                let field = f
                    .next()
                    .ok_or_else(|| bad(line_no, "`delay` needs a field name"))?;
                let value: f64 = num(line_no, field, f.next())?;
                match field {
                    "r_wire" => delay.r_wire = value,
                    "c_wire" => delay.c_wire = value,
                    "r_antifuse" => delay.r_antifuse = value,
                    "c_antifuse" => delay.c_antifuse = value,
                    "r_driver" => delay.r_driver = value,
                    "c_input" => delay.c_input = value,
                    "t_comb" => delay.t_comb = value,
                    "t_seq" => delay.t_seq = value,
                    "t_io" => delay.t_io = value,
                    other => return Err(bad(line_no, format!("unknown delay field `{other}`"))),
                }
            }
            other => return Err(bad(line_no, format!("unknown directive `{other}`"))),
        }
    }
    Ok(builder.delay(delay).build()?)
}

/// Serializes an architecture in the format parsed by
/// [`parse_architecture`].
pub fn write_architecture(arch: &Architecture) -> String {
    use std::fmt::Write as _;
    let g = arch.geometry();
    let mut out = String::from("# rowfpga architecture\n");
    let _ = writeln!(out, "rows {}", g.num_rows());
    let _ = writeln!(out, "cols {}", g.num_cols());
    let _ = writeln!(out, "io_columns {}", g.io_columns());
    let _ = writeln!(out, "tracks_per_channel {}", arch.tracks_per_channel());
    match arch.segmentation() {
        SegmentationScheme::FullLength => {
            let _ = writeln!(out, "segmentation full");
        }
        SegmentationScheme::Uniform { len } => {
            let _ = writeln!(out, "segmentation uniform {len}");
        }
        SegmentationScheme::Mixed { lengths } => {
            let joined: Vec<String> = lengths.iter().map(usize::to_string).collect();
            let _ = writeln!(out, "segmentation mixed {}", joined.join(" "));
        }
        SegmentationScheme::ActelLike { seed } => {
            let _ = writeln!(out, "segmentation actel {seed}");
        }
        SegmentationScheme::Explicit { tracks } => {
            let spec: Vec<String> = tracks
                .iter()
                .map(|t| t.iter().map(usize::to_string).collect::<Vec<_>>().join(","))
                .collect();
            let _ = writeln!(out, "segmentation explicit {}", spec.join("|"));
        }
    }
    match arch.vertical_scheme() {
        VerticalScheme::Uniform {
            tracks_per_column,
            span,
        } => {
            let _ = writeln!(out, "verticals uniform {tracks_per_column} {span}");
        }
        VerticalScheme::WithLongLines {
            tracks_per_column,
            span,
        } => {
            let _ = writeln!(out, "verticals longlines {tracks_per_column} {span}");
        }
    }
    let d = arch.delay();
    let _ = writeln!(out, "delay r_wire {}", d.r_wire);
    let _ = writeln!(out, "delay c_wire {}", d.c_wire);
    let _ = writeln!(out, "delay r_antifuse {}", d.r_antifuse);
    let _ = writeln!(out, "delay c_antifuse {}", d.c_antifuse);
    let _ = writeln!(out, "delay r_driver {}", d.r_driver);
    let _ = writeln!(out, "delay c_input {}", d.c_input);
    let _ = writeln!(out, "delay t_comb {}", d.t_comb);
    let _ = writeln!(out, "delay t_seq {}", d.t_seq);
    let _ = writeln!(out, "delay t_io {}", d.t_io);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ChannelId;

    const SAMPLE: &str = "\
# toy fabric
rows 3
cols 12
io_columns 2
tracks_per_channel 6
segmentation mixed 2 4
verticals uniform 2 3
delay r_antifuse 750
";

    #[test]
    fn parses_sample() {
        let a = parse_architecture(SAMPLE).unwrap();
        assert_eq!(a.geometry().num_rows(), 3);
        assert_eq!(a.geometry().num_cols(), 12);
        assert_eq!(a.tracks_per_channel(), 6);
        assert_eq!(
            a.segmentation(),
            &SegmentationScheme::Mixed {
                lengths: vec![2, 4]
            }
        );
        assert_eq!(a.delay().r_antifuse, 750.0);
        // unspecified delay fields keep defaults
        assert_eq!(a.delay().r_wire, DelayParams::default().r_wire);
    }

    #[test]
    fn round_trips_every_scheme() {
        for scheme in [
            SegmentationScheme::FullLength,
            SegmentationScheme::Uniform { len: 3 },
            SegmentationScheme::Mixed {
                lengths: vec![2, 4, 8],
            },
            SegmentationScheme::ActelLike { seed: 99 },
            SegmentationScheme::Explicit {
                tracks: vec![vec![4, 8], vec![], vec![6]],
            },
        ] {
            let a = Architecture::builder()
                .rows(2)
                .cols(12)
                .io_columns(1)
                .tracks_per_channel(3)
                .segmentation(scheme)
                .verticals(VerticalScheme::WithLongLines {
                    tracks_per_column: 2,
                    span: 3,
                })
                .build()
                .unwrap();
            let text = write_architecture(&a);
            let b = parse_architecture(&text).unwrap();
            assert_eq!(a.segmentation(), b.segmentation());
            assert_eq!(a.num_hsegs(), b.num_hsegs());
            assert_eq!(a.num_vsegs(), b.num_vsegs());
            assert_eq!(a.delay(), b.delay());
            for c in 0..a.geometry().num_channels() {
                assert_eq!(
                    a.channel_tracks(ChannelId::new(c)),
                    b.channel_tracks(ChannelId::new(c))
                );
            }
        }
    }

    #[test]
    fn reports_malformed_lines() {
        for (text, needle) in [
            ("rows\n", "needs a value"),
            ("rows x\n", "bad value"),
            ("frobnicate 3\n", "unknown directive"),
            ("segmentation bogus\n", "unknown segmentation"),
            ("segmentation mixed\n", "at least one length"),
            ("verticals spiral 2 3\n", "unknown verticals"),
            ("delay r_flux 3\n", "unknown delay field"),
        ] {
            let err = parse_architecture(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "`{text}` gave `{err}`, wanted `{needle}`"
            );
        }
    }

    #[test]
    fn build_errors_are_wrapped() {
        let err = parse_architecture("rows 0\n").unwrap_err();
        assert!(matches!(err, ParseArchitectureError::Build(_)));
    }
}
