//! Identifier newtypes for the molecular cache's physical structures.

use std::fmt;

/// Index of a molecule within the whole cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MoleculeId(pub u32);

/// Index of a tile within the whole cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub u32);

impl MoleculeId {
    /// Array index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl TileId {
    /// Array index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MoleculeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mol:{}", self.0)
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(MoleculeId(3).to_string(), "mol:3");
        assert_eq!(TileId(1).to_string(), "tile:1");
    }

    #[test]
    fn index_roundtrip() {
        assert_eq!(MoleculeId(7).index(), 7);
        assert_eq!(TileId(2).index(), 2);
    }
}
