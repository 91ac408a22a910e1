//! Identifier newtypes.
//!
//! The paper keys profiles by a 64-bit unsigned integer and categorises
//! features into *slots* and *(action) types*. Every identifier is a thin
//! newtype over an integer so the compiler keeps us from mixing them up while
//! the runtime representation stays a machine word.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $inner:ty) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Wrap a raw integer id.
            #[inline]
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// The raw integer value.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $inner {
            #[inline]
            fn from(id: $name) -> Self {
                id.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_newtype!(
    /// Uniquely identifies a profile (a user) within a table. 64-bit unsigned,
    /// exactly as in the paper's Profile Table.
    ProfileId,
    u64
);

id_newtype!(
    /// Identifies a feature (e.g. a hashed content id or entity). The paper
    /// stores hashed literals; we use the hash directly.
    FeatureId,
    u64
);

id_newtype!(
    /// A *slot* groups features into a coarse category (e.g. "Sports").
    SlotId,
    u32
);

id_newtype!(
    /// An *action type* (the paper also calls this "type") subdivides a slot
    /// (e.g. "Basketball") and owns one indexed feature statistic map.
    ActionTypeId,
    u32
);

id_newtype!(
    /// Identifies an IPS table. Data in different tables is stored separately.
    TableId,
    u32
);

id_newtype!(
    /// Identifies an upstream caller for quota accounting (multi-tenancy).
    CallerId,
    u32
);

/// Stable 64-bit FNV-1a hash used to map textual feature names to
/// [`FeatureId`]s in examples and workload generators. The production system
/// stores hashed literals; this gives tests a deterministic equivalent.
#[must_use]
pub fn hash_name(name: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl FeatureId {
    /// Derive a feature id from a textual name via a stable hash.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        Self(hash_name(name))
    }
}

impl ProfileId {
    /// Derive a profile id from a textual name via a stable hash.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        Self(hash_name(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtype_round_trip() {
        let p = ProfileId::new(42);
        assert_eq!(p.raw(), 42);
        assert_eq!(ProfileId::from(42u64), p);
        assert_eq!(u64::from(p), 42);
    }

    #[test]
    fn display_and_debug() {
        let s = SlotId::new(7);
        assert_eq!(format!("{s}"), "7");
        assert_eq!(format!("{s:?}"), "SlotId(7)");
    }

    #[test]
    fn hash_name_is_stable_and_distinguishes() {
        let a = hash_name("Los Angeles Lakers");
        let b = hash_name("Golden State Warriors");
        assert_ne!(a, b);
        assert_eq!(a, hash_name("Los Angeles Lakers"));
    }

    #[test]
    fn from_name_matches_hash() {
        assert_eq!(FeatureId::from_name("x").raw(), hash_name("x"));
        assert_eq!(ProfileId::from_name("x").raw(), hash_name("x"));
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(FeatureId::new(1) < FeatureId::new(2));
        assert!(ActionTypeId::new(9) > ActionTypeId::new(3));
    }
}
