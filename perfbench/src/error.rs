//! The benchmark's error type.

use std::error::Error;
use std::fmt;

use rowfpga_core::LayoutError;

/// Why a benchmark run could not produce a result.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command-line arguments.
    Usage(String),
    /// A pinned input file could not be read or written.
    Io {
        /// The file.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A pinned input is malformed or no longer matches its recorded
    /// digest or fingerprint.
    Input(String),
    /// A flow or problem constructor returned an error.
    Layout(LayoutError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "usage: {msg}"),
            BenchError::Io { path, source } => write!(f, "{path}: {source}"),
            BenchError::Input(msg) => write!(f, "input: {msg}"),
            BenchError::Layout(e) => write!(f, "layout: {e}"),
        }
    }
}

impl Error for BenchError {}

impl From<LayoutError> for BenchError {
    fn from(e: LayoutError) -> Self {
        BenchError::Layout(e)
    }
}
