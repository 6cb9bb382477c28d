//! Access modes and their compatibility (Figure 6).
//!
//! Traditional modes are shared (`S`) and exclusive (`X`); the
//! multi-granularity protocol adds intention modes: `IS` (intention to
//! read below), `IX` (intention to write below), and `SIX` (read here,
//! intention to write below).

use std::fmt;
use std::str::FromStr;

/// A lock access mode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Mode {
    /// Intention to acquire shared locks on descendants.
    Is,
    /// Intention to acquire exclusive locks on descendants.
    Ix,
    /// Shared (read) access to this node and everything below it.
    S,
    /// Shared access here plus intention to write some descendants.
    Six,
    /// Exclusive (write) access to this node and everything below it.
    X,
}

pub const ALL_MODES: [Mode; 5] = [Mode::Is, Mode::Ix, Mode::S, Mode::Six, Mode::X];

impl Mode {
    /// The compatibility matrix of Figure 6(b): can two *different*
    /// threads hold these modes on the same node concurrently?
    pub const fn compatible(self, other: Mode) -> bool {
        use Mode::*;
        match (self, other) {
            (Is, X) | (X, Is) => false,
            (Is, _) | (_, Is) => true,
            (Ix, Ix) => true,
            (S, S) => true,
            _ => false,
        }
    }

    /// The least mode granting everything both inputs grant — used when
    /// one `acquireAll` needs a node in two capacities (e.g. `S` for a
    /// coarse read lock and `IX` as the ancestor of a fine write lock
    /// gives `SIX`).
    pub fn combine(self, other: Mode) -> Mode {
        use Mode::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Is, m) | (m, Is) => m,
            (Ix, S) | (S, Ix) => Six,
            (Ix, Ix) => Ix,
            (Ix, Six) | (Six, Ix) => Six,
            (S, Six) | (Six, S) => Six,
            (X, _) | (_, X) => X,
            (S, S) => S,
            (Six, Six) => Six,
        }
    }

    /// Whether this mode grants the capabilities of `other`
    /// (the "stronger-than" order induced by `combine`).
    pub fn grants(self, other: Mode) -> bool {
        self.combine(other) == self
    }

    /// The intention mode an *ancestor* must hold for a node acquired in
    /// this mode (protocol rule 1/2 of §5.1).
    pub fn ancestor_intention(self) -> Mode {
        match self {
            Mode::Is | Mode::S => Mode::Is,
            Mode::Ix | Mode::Six | Mode::X => Mode::Ix,
        }
    }

    /// The mode's one spelling: what [`fmt::Display`] prints, what
    /// [`FromStr`] accepts, and the `MODE` tag of a recorded event.
    pub fn tag(self) -> &'static str {
        match self {
            Mode::Is => "IS",
            Mode::Ix => "IX",
            Mode::S => "S",
            Mode::Six => "SIX",
            Mode::X => "X",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

impl FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Mode, String> {
        ALL_MODES
            .into_iter()
            .find(|m| m.tag() == s)
            .ok_or_else(|| format!("unknown lock mode `{s}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Mode::*;

    #[test]
    fn figure_6b_matrix() {
        // Row-by-row transcription of the paper's Figure 6(b).
        let expect = [
            (Is, [true, true, true, true, false]),
            (Ix, [true, true, false, false, false]),
            (S, [true, false, true, false, false]),
            (Six, [true, false, false, false, false]),
            (X, [false, false, false, false, false]),
        ];
        for (a, row) in expect {
            for (b, want) in ALL_MODES.iter().zip(row) {
                assert_eq!(a.compatible(*b), want, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn compatibility_is_symmetric() {
        for a in ALL_MODES {
            for b in ALL_MODES {
                assert_eq!(a.compatible(b), b.compatible(a));
            }
        }
    }

    #[test]
    fn combine_is_a_join() {
        for a in ALL_MODES {
            assert_eq!(a.combine(a), a, "idempotent");
            for b in ALL_MODES {
                let j = a.combine(b);
                assert_eq!(j, b.combine(a), "commutative");
                assert!(j.grants(a) && j.grants(b), "upper bound: {a}+{b}={j}");
                // Anything compatible with the join is compatible with
                // both inputs (the join is conservative).
                for c in ALL_MODES {
                    if c.compatible(j) {
                        assert!(c.compatible(a) && c.compatible(b));
                    }
                }
            }
        }
    }

    #[test]
    fn s_plus_ix_is_six() {
        assert_eq!(S.combine(Ix), Six);
        assert_eq!(Ix.combine(S), Six);
    }

    #[test]
    fn display_and_from_str_round_trip() {
        for m in ALL_MODES {
            assert_eq!(m.to_string().parse(), Ok(m));
        }
        assert!("is".parse::<Mode>().is_err(), "tags are case-sensitive");
        assert!("XS".parse::<Mode>().is_err());
    }

    #[test]
    fn ancestor_intentions() {
        assert_eq!(S.ancestor_intention(), Is);
        assert_eq!(Is.ancestor_intention(), Is);
        assert_eq!(X.ancestor_intention(), Ix);
        assert_eq!(Six.ancestor_intention(), Ix);
        assert_eq!(Ix.ancestor_intention(), Ix);
    }
}
