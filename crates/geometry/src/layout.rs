//! A layout: filaments grouped into electrical nets.
//!
//! Each net is an ordered chain of filaments (a wire path). The model
//! builders in `vpec-core` turn each filament into one RLC segment of a
//! distributed π ladder and wire consecutive filaments of a net in series.

use crate::Filament;

/// Identifier of a net within a [`Layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetId(pub usize);

// By hand: a derived `PartialOrd` calls the `partial_cmp` clippy.toml disallows.
impl Ord for NetId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for NetId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Electrical role of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetKind {
    /// A signal wire: driven or quiet, loaded at the far end.
    #[default]
    Signal,
    /// A power/ground return wire: tied to ground at both ends. Used by
    /// shielded buses and the return-limited inductance baseline.
    Ground,
}

/// An electrical net: an ordered chain of filament indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    name: String,
    filaments: Vec<usize>,
    kind: NetKind,
}

impl Net {
    /// The net's name (e.g. `bit3` or `spiral`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indices into [`Layout::filaments`], in series order from the net's
    /// input port to its output port.
    pub fn filaments(&self) -> &[usize] {
        &self.filaments
    }

    /// The net's electrical role.
    pub fn kind(&self) -> NetKind {
        self.kind
    }

    /// `true` for power/ground return nets.
    pub fn is_ground(&self) -> bool {
        self.kind == NetKind::Ground
    }
}

/// A collection of filaments organized into nets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Layout {
    filaments: Vec<Filament>,
    nets: Vec<Net>,
}

impl Layout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Layout::default()
    }

    /// All filaments, in insertion order. Extraction matrices (L, R, C) are
    /// indexed in this order.
    pub fn filaments(&self) -> &[Filament] {
        &self.filaments
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// A stable FNV-1a content hash of the full geometry: every filament's
    /// exact coordinates (bit patterns, so `-0.0 ≠ 0.0` but identical
    /// geometry always collides) plus net names, kinds, and chain order.
    ///
    /// The batch engine keys its model cache on this: two requests whose
    /// layouts hash equal share one extraction and one built model.
    pub fn content_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&(self.filaments.len() as u64).to_le_bytes());
        for f in &self.filaments {
            for v in f.origin {
                eat(&v.to_bits().to_le_bytes());
            }
            eat(&[f.axis.index() as u8]);
            eat(&f.length.to_bits().to_le_bytes());
            eat(&f.width.to_bits().to_le_bytes());
            eat(&f.thickness.to_bits().to_le_bytes());
            eat(&f.direction.to_bits().to_le_bytes());
        }
        eat(&(self.nets.len() as u64).to_le_bytes());
        for n in &self.nets {
            eat(n.name.as_bytes());
            eat(&[matches!(n.kind, NetKind::Ground) as u8]);
            for &fi in &n.filaments {
                eat(&(fi as u64).to_le_bytes());
            }
        }
        h
    }

    /// Adds a signal net made of the given chain of filaments and returns
    /// its id.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is empty or any filament is invalid — generators
    /// are expected to produce physical geometry.
    pub fn push_net(&mut self, name: impl Into<String>, chain: Vec<Filament>) -> NetId {
        self.push_net_with_kind(name, chain, NetKind::Signal)
    }

    /// Adds a net with an explicit [`NetKind`].
    ///
    /// # Panics
    ///
    /// See [`Layout::push_net`].
    pub fn push_net_with_kind(
        &mut self,
        name: impl Into<String>,
        chain: Vec<Filament>,
        kind: NetKind,
    ) -> NetId {
        assert!(!chain.is_empty(), "net must contain at least one filament");
        let base = self.filaments.len();
        for (k, f) in chain.iter().enumerate() {
            assert!(
                f.is_valid(),
                "filament {k} of net has non-physical dimensions: {f:?}"
            );
        }
        let ids: Vec<usize> = (base..base + chain.len()).collect();
        self.filaments.extend(chain);
        let id = NetId(self.nets.len());
        self.nets.push(Net {
            name: name.into(),
            filaments: ids,
            kind,
        });
        id
    }

    /// Indices of the signal nets (in net order).
    pub fn signal_nets(&self) -> Vec<usize> {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_ground())
            .map(|(i, _)| i)
            .collect()
    }

    /// The net a filament belongs to, or `None` for an unknown index.
    pub fn net_of(&self, filament: usize) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.filaments.contains(&filament))
            .map(NetId)
    }

    /// Total conductor length over all filaments.
    pub fn total_length(&self) -> f64 {
        self.filaments.iter().map(|f| f.length).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{um, Axis};

    fn seg(x: f64) -> Filament {
        Filament::new([x, 0.0, 0.0], Axis::X, um(10.0), um(1.0), um(1.0))
    }

    #[test]
    fn push_and_query() {
        let mut l = Layout::new();
        let id = l.push_net("a", vec![seg(0.0), seg(um(10.0))]);
        assert_eq!(id, NetId(0));
        assert_eq!(l.filaments().len(), 2);
        assert_eq!(l.nets()[0].name(), "a");
        assert_eq!(l.nets()[0].filaments(), &[0, 1]);
        assert_eq!(l.net_of(1), Some(NetId(0)));
        assert_eq!(l.net_of(7), None);
        assert!((l.total_length() - um(20.0)).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "at least one filament")]
    fn empty_net_rejected() {
        Layout::new().push_net("x", vec![]);
    }

    #[test]
    #[should_panic(expected = "non-physical")]
    fn invalid_filament_rejected() {
        let mut bad = seg(0.0);
        bad.length = -1.0;
        Layout::new().push_net("x", vec![bad]);
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let build = |x: f64, name: &str| {
            let mut l = Layout::new();
            l.push_net(name, vec![seg(x), seg(x + um(10.0))]);
            l
        };
        assert_eq!(
            build(0.0, "a").content_hash(),
            build(0.0, "a").content_hash(),
            "identical geometry must hash equal"
        );
        assert_ne!(build(0.0, "a").content_hash(), build(um(1.0), "a").content_hash());
        assert_ne!(build(0.0, "a").content_hash(), build(0.0, "b").content_hash());
        let mut ground = Layout::new();
        ground.push_net_with_kind("a", vec![seg(0.0), seg(um(10.0))], NetKind::Ground);
        assert_ne!(build(0.0, "a").content_hash(), ground.content_hash());
    }

    #[test]
    fn multiple_nets_index_consecutively() {
        let mut l = Layout::new();
        l.push_net("a", vec![seg(0.0)]);
        let id = l.push_net("b", vec![seg(um(100.0)), seg(um(110.0))]);
        assert_eq!(id, NetId(1));
        assert_eq!(l.nets()[1].filaments(), &[1, 2]);
    }
}
