//! Channel track segmentation.
//!
//! Each track in a channel is divided into contiguous horizontal segments.
//! Small segments waste little wire on short connections but force long
//! connections through many horizontal antifuses; long segments do the
//! opposite. Real row-based parts therefore mix segment lengths and stagger
//! the break positions from track to track — the *segmentation* of the
//! channel (paper §1).

use crate::ids::{ColId, HSegId};

/// A horizontal routing segment: a contiguous span of columns on one track.
///
/// The span is half-open over column indices: the segment crosses columns
/// `start..end` and can be tapped (via a cross antifuse) at any of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HSegment {
    id: HSegId,
    start: u32,
    end: u32,
}

impl HSegment {
    pub(crate) fn new(id: HSegId, start: usize, end: usize) -> Self {
        assert!(start < end, "segment must be non-empty");
        Self {
            id,
            start: start as u32,
            end: end as u32,
        }
    }

    /// Global identifier of this segment.
    pub fn id(&self) -> HSegId {
        self.id
    }

    /// First column covered.
    pub fn start(&self) -> usize {
        self.start as usize
    }

    /// One past the last column covered.
    pub fn end(&self) -> usize {
        self.end as usize
    }

    /// Number of columns covered.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Always false; segments are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the segment can be tapped at column `col`.
    pub fn covers(&self, col: ColId) -> bool {
        let c = col.index() as u32;
        self.start <= c && c < self.end
    }
}

/// One full-width wiring lane of a channel, subdivided into segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Track {
    segments: Vec<HSegment>,
    /// `col_to_seg[col]` is the index of the segment covering `col` — the
    /// router probes this on every track of a channel for every span it
    /// considers, so the lookup must not search.
    col_to_seg: Vec<u32>,
}

impl Track {
    pub(crate) fn new(segments: Vec<HSegment>) -> Self {
        debug_assert!(!segments.is_empty());
        debug_assert!(segments.windows(2).all(|w| w[0].end() == w[1].start()));
        let width = segments.last().map_or(0, |s| s.end());
        let mut col_to_seg = vec![0u32; width];
        for (i, s) in segments.iter().enumerate() {
            col_to_seg[s.start()..s.end()].fill(i as u32);
        }
        Self {
            segments,
            col_to_seg,
        }
    }

    /// The segments of this track in left-to-right order.
    pub fn segments(&self) -> &[HSegment] {
        &self.segments
    }

    /// Index (within this track) of the segment covering `col`.
    ///
    /// Returns `None` only if `col` lies beyond the channel width.
    pub fn segment_at(&self, col: ColId) -> Option<usize> {
        self.col_to_seg.get(col.index()).map(|&i| i as usize)
    }
}

/// How to cut each track of each channel into segments.
#[derive(Clone, Debug, PartialEq)]
pub enum SegmentationScheme {
    /// Every track is one full-width segment (no horizontal antifuses ever
    /// needed; wasteful for wirability). Useful as a degenerate reference.
    FullLength,
    /// Every segment has length `len` (the last may be shorter), with break
    /// positions staggered by track index so that breaks do not align
    /// vertically.
    Uniform {
        /// Segment length in columns.
        len: usize,
    },
    /// A repeating mix of segment lengths, cycled per track with staggered
    /// phase. For example `lengths = [2, 4, 8]` produces tracks whose
    /// segments repeat 2-4-8-2-4-8…
    Mixed {
        /// The repeating pattern of segment lengths.
        lengths: Vec<usize>,
    },
    /// An Actel-flavoured pseudo-random mix: mostly short segments
    /// (lengths 2–4), some medium (6–8) and one long-line track per four
    /// tracks, generated deterministically from `seed`.
    ActelLike {
        /// Seed for the deterministic segment-length draw.
        seed: u64,
    },
    /// Fully explicit segmentation: `tracks[t]` lists the interior break
    /// columns of track `t` (each break `b` splits columns `..b` from
    /// `b..`). The same pattern is applied to every channel. The number of
    /// tracks given here overrides the builder's `tracks_per_channel`.
    Explicit {
        /// Interior break columns per track.
        tracks: Vec<Vec<usize>>,
    },
}

impl SegmentationScheme {
    /// Generates the interior break columns for track `track` of a channel
    /// `width` columns wide in channel `channel`.
    pub(crate) fn breaks(&self, channel: usize, track: usize, width: usize) -> Vec<usize> {
        match self {
            SegmentationScheme::FullLength => Vec::new(),
            SegmentationScheme::Uniform { len } => {
                let len = (*len).max(1);
                let phase = track % len;
                let mut breaks = Vec::new();
                let mut b = if phase == 0 { len } else { phase };
                while b < width {
                    breaks.push(b);
                    b += len;
                }
                breaks
            }
            SegmentationScheme::Mixed { lengths } => {
                assert!(!lengths.is_empty(), "Mixed segmentation needs lengths");
                let mut breaks = Vec::new();
                let mut pos = 0usize;
                let mut i = track; // stagger the phase per track
                while pos < width {
                    pos += lengths[i % lengths.len()].max(1);
                    i += 1;
                    if pos < width {
                        breaks.push(pos);
                    }
                }
                breaks
            }
            SegmentationScheme::ActelLike { seed } => {
                if track % 4 == 3 {
                    // one long-line track per group of four
                    return Vec::new();
                }
                let mut state = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((channel as u64) << 32)
                    .wrapping_add(track as u64 + 1);
                let mut next = move || {
                    // xorshift64* — deterministic, dependency-free
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    state = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
                    state
                };
                let mut breaks = Vec::new();
                let mut pos = 0usize;
                loop {
                    let r = next() % 100;
                    let len = if r < 60 {
                        2 + (next() % 3) as usize // 2..=4
                    } else if r < 90 {
                        6 + (next() % 3) as usize // 6..=8
                    } else {
                        12 + (next() % 5) as usize // 12..=16
                    };
                    pos += len;
                    if pos >= width {
                        break;
                    }
                    breaks.push(pos);
                }
                breaks
            }
            SegmentationScheme::Explicit { tracks } => {
                let mut b = tracks[track].clone();
                b.sort_unstable();
                b.dedup();
                b.retain(|&x| x > 0 && x < width);
                b
            }
        }
    }

    /// Number of tracks this scheme mandates, if it overrides the builder's
    /// `tracks_per_channel` (only [`SegmentationScheme::Explicit`] does).
    pub(crate) fn forced_track_count(&self) -> Option<usize> {
        match self {
            SegmentationScheme::Explicit { tracks } => Some(tracks.len()),
            _ => None,
        }
    }

    /// Mean segment length, in columns, that this scheme produces on a
    /// channel of the given `width` — used by the timing estimator for nets
    /// that are not yet physically embedded.
    pub fn mean_segment_len(&self, width: usize) -> f64 {
        match self {
            SegmentationScheme::FullLength => width as f64,
            SegmentationScheme::Uniform { len } => (*len).min(width).max(1) as f64,
            SegmentationScheme::Mixed { lengths } => {
                let sum: usize = lengths.iter().sum();
                (sum as f64 / lengths.len() as f64).min(width as f64)
            }
            SegmentationScheme::ActelLike { .. } => {
                // expectation of the draw above: 0.6·3 + 0.3·7 + 0.1·14
                (0.6 * 3.0 + 0.3 * 7.0 + 0.1 * 14.0f64).min(width as f64)
            }
            SegmentationScheme::Explicit { tracks } => {
                let total_segments: usize = tracks.iter().map(|t| t.len() + 1).sum();
                if total_segments == 0 {
                    width as f64
                } else {
                    (tracks.len() * width) as f64 / total_segments as f64
                }
            }
        }
    }
}

/// Builds the tracks for one channel, assigning global segment ids starting
/// at `next_id`. Returns the tracks and the next free id.
pub(crate) fn build_channel_tracks(
    scheme: &SegmentationScheme,
    channel: usize,
    num_tracks: usize,
    width: usize,
    mut next_id: usize,
) -> (Vec<Track>, usize) {
    let mut tracks = Vec::with_capacity(num_tracks);
    for t in 0..num_tracks {
        let breaks = scheme.breaks(channel, t, width);
        let mut segments = Vec::with_capacity(breaks.len() + 1);
        let mut start = 0usize;
        for &b in &breaks {
            segments.push(HSegment::new(HSegId::new(next_id), start, b));
            next_id += 1;
            start = b;
        }
        segments.push(HSegment::new(HSegId::new(next_id), start, width));
        next_id += 1;
        tracks.push(Track::new(segments));
    }
    (tracks, next_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(scheme: &SegmentationScheme, track: usize, width: usize) -> Vec<(usize, usize)> {
        let (tracks, _) = build_channel_tracks(scheme, 0, track + 1, width, 0);
        tracks[track]
            .segments()
            .iter()
            .map(|s| (s.start(), s.end()))
            .collect()
    }

    #[test]
    fn full_length_is_one_segment() {
        assert_eq!(spans(&SegmentationScheme::FullLength, 0, 16), vec![(0, 16)]);
    }

    #[test]
    fn uniform_segments_are_staggered_per_track() {
        let s = SegmentationScheme::Uniform { len: 4 };
        assert_eq!(spans(&s, 0, 10), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(spans(&s, 1, 10), vec![(0, 1), (1, 5), (5, 9), (9, 10)]);
        assert_eq!(spans(&s, 2, 10), vec![(0, 2), (2, 6), (6, 10)]);
    }

    #[test]
    fn mixed_pattern_cycles() {
        let s = SegmentationScheme::Mixed {
            lengths: vec![2, 4],
        };
        assert_eq!(spans(&s, 0, 12), vec![(0, 2), (2, 6), (6, 8), (8, 12)]);
        // phase shifted by one on track 1: starts with the 4-length
        assert_eq!(spans(&s, 1, 12), vec![(0, 4), (4, 6), (6, 10), (10, 12)]);
    }

    #[test]
    fn explicit_breaks_are_sanitized() {
        let s = SegmentationScheme::Explicit {
            tracks: vec![vec![8, 3, 3, 0, 99]],
        };
        assert_eq!(spans(&s, 0, 10), vec![(0, 3), (3, 8), (8, 10)]);
    }

    #[test]
    fn actel_like_is_deterministic_and_tiles_the_width() {
        let s = SegmentationScheme::ActelLike { seed: 9 };
        let a = spans(&s, 0, 40);
        let b = spans(&s, 0, 40);
        assert_eq!(a, b);
        assert_eq!(a.first().map(|x| x.0), Some(0));
        assert_eq!(a.last().map(|x| x.1), Some(40));
        for w in a.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // every fourth track is a long line
        assert_eq!(spans(&s, 3, 40), vec![(0, 40)]);
    }

    #[test]
    fn track_segment_lookup() {
        let s = SegmentationScheme::Uniform { len: 4 };
        let (tracks, next) = build_channel_tracks(&s, 0, 2, 10, 5);
        assert_eq!(next, 5 + 3 + 4);
        let t0 = &tracks[0];
        assert_eq!(t0.segment_at(ColId::new(0)), Some(0));
        assert_eq!(t0.segment_at(ColId::new(3)), Some(0));
        assert_eq!(t0.segment_at(ColId::new(4)), Some(1));
        assert_eq!(t0.segment_at(ColId::new(9)), Some(2));
        assert_eq!(t0.segment_at(ColId::new(10)), None);
        assert!(t0.segments()[1].covers(ColId::new(5)));
        assert!(!t0.segments()[1].covers(ColId::new(8)));
    }

    #[test]
    fn global_ids_are_consecutive_across_tracks() {
        let s = SegmentationScheme::Uniform { len: 5 };
        let (tracks, next) = build_channel_tracks(&s, 2, 3, 10, 100);
        let mut expected = 100;
        for t in &tracks {
            for seg in t.segments() {
                assert_eq!(seg.id().index(), expected);
                expected += 1;
            }
        }
        assert_eq!(next, expected);
    }

    #[test]
    fn mean_segment_len_matches_generated_tracks_for_uniform() {
        let s = SegmentationScheme::Uniform { len: 4 };
        assert!((s.mean_segment_len(100) - 4.0).abs() < 1e-9);
        assert!((SegmentationScheme::FullLength.mean_segment_len(32) - 32.0).abs() < 1e-9);
    }
}
