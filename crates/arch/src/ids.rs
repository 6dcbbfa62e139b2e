//! Strongly typed identifiers for architectural resources.
//!
//! Every physical resource of the fabric — rows, columns, sites, channels,
//! tracks and routing segments — is referred to by a compact index newtype.
//! The newtypes keep row/column/segment indices from being confused with one
//! another at compile time while remaining `Copy` and cheaply hashable.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn new(index: usize) -> Self {
                Self(u32::try_from(index).expect("resource index overflows u32"))
            }

            /// Returns the raw index, suitable for indexing into dense arrays.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// A row of logic-module sites. Row `r` sits between channel `r` (below)
    /// and channel `r + 1` (above).
    RowId,
    "r"
);
id_type!(
    /// A column of the chip. Columns index both site positions within a row
    /// and the vertical routing resources that run across channels.
    ColId,
    "c"
);
id_type!(
    /// A module site: one (row, column) slot that can hold a single cell.
    SiteId,
    "s"
);
id_type!(
    /// A horizontal routing channel. A chip with `R` rows has channels
    /// `0..=R`; channel `c` lies below row `c` and above row `c - 1`.
    ChannelId,
    "ch"
);
id_type!(
    /// A track within a channel (one full-width wiring lane, subdivided into
    /// segments).
    TrackId,
    "t"
);
id_type!(
    /// A horizontal wiring segment, globally indexed across all channels and
    /// tracks.
    HSegId,
    "h"
);
id_type!(
    /// A vertical wiring segment, globally indexed across all columns.
    VSegId,
    "v"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_raw_index() {
        let id = HSegId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
    }

    #[test]
    fn debug_and_display_are_tagged() {
        assert_eq!(format!("{:?}", RowId::new(3)), "r3");
        assert_eq!(format!("{}", ChannelId::new(0)), "ch0");
        assert_eq!(format!("{}", VSegId::new(17)), "v17");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "tests the `Hash` derive, which only a hash collection uses"
    )]
    fn ids_are_ordered_and_hashable() {
        assert!(TrackId::new(1) < TrackId::new(2));
        let set: std::collections::HashSet<SiteId> =
            [SiteId::new(1), SiteId::new(1), SiteId::new(2)]
                .into_iter()
                .collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn rejects_indices_wider_than_u32() {
        let _ = ColId::new(usize::MAX);
    }
}
