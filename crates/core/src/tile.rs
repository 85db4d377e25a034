//! Tiles and tile clusters (the physical organization, Figure 2).
//!
//! The geometry is fixed at construction: molecule ids are assigned
//! tile-contiguously and tile ids cluster-contiguously, so a molecule's
//! tile and a tile's cluster are index arithmetic ([`Topology`]). The
//! only per-tile state is the free list of unconfigured molecules
//! ([`Tile`]).

use crate::ids::{MoleculeId, TileId};

/// The cache's geometry as index arithmetic: molecule `m` sits in tile
/// `m / tile_molecules`, tile `t` in cluster `t / tiles_per_cluster`.
///
/// [`tile_of`](Self::tile_of) shifts when the tile size is a power of
/// two and divides only otherwise (fig5's 3 MB and 6 MB caches have 96-
/// and 192-molecule tiles): the tag store calls it on the access path,
/// to find the frame the line index names, a write hit marks or a fill
/// writes, and stage 0 to find the lookup slot of an indexed hit.
///
/// ```
/// use molcache_core::tile::Topology;
/// use molcache_core::ids::{MoleculeId, TileId};
///
/// // Tiles of 32 molecules, clusters of 4 tiles.
/// let topo = Topology::new(32, 4);
/// assert_eq!(topo.tile_of(MoleculeId(70)), TileId(2));
/// assert_eq!(topo.tile_base(TileId(2)), 64);
/// assert_eq!(topo.cluster_of(TileId(5)), 1);
/// assert_eq!(topo.cluster_tile(1, 2), TileId(6));
/// assert!(topo.cluster_tiles(1).eq((4..8).map(TileId)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    tile_molecules: usize,
    /// `log2(tile_molecules)`, or `u32::MAX` when the tile size is not a
    /// power of two.
    tile_shift: u32,
    tiles_per_cluster: usize,
}

impl Topology {
    /// The geometry of tiles of `tile_molecules` molecules grouped into
    /// clusters of `tiles_per_cluster` tiles.
    pub fn new(tile_molecules: usize, tiles_per_cluster: usize) -> Self {
        Topology {
            tile_molecules,
            tile_shift: if tile_molecules.is_power_of_two() {
                tile_molecules.trailing_zeros()
            } else {
                u32::MAX
            },
            tiles_per_cluster,
        }
    }

    /// Molecules per tile.
    #[inline]
    pub fn tile_molecules(self) -> usize {
        self.tile_molecules
    }

    /// The tile that physically hosts `mol`.
    #[inline]
    pub fn tile_of(self, mol: MoleculeId) -> TileId {
        let i = mol.index();
        let tile = if self.tile_shift != u32::MAX {
            i >> self.tile_shift
        } else {
            i / self.tile_molecules
        };
        TileId(tile as u32)
    }

    /// The id of `tile`'s first molecule: its molecules are the
    /// [`tile_molecules`](Self::tile_molecules) ids from here on.
    #[inline]
    pub fn tile_base(self, tile: TileId) -> usize {
        tile.index() * self.tile_molecules
    }

    /// The molecules of `tile`, ascending.
    pub fn tile_molecule_ids(self, tile: TileId) -> impl Iterator<Item = MoleculeId> {
        let base = self.tile_base(tile);
        (base..base + self.tile_molecules).map(|i| MoleculeId(i as u32))
    }

    /// The cluster index of `tile`.
    pub fn cluster_of(self, tile: TileId) -> usize {
        tile.index() / self.tiles_per_cluster
    }

    /// Tile `pos` of cluster `cluster`.
    pub fn cluster_tile(self, cluster: usize, pos: usize) -> TileId {
        TileId((cluster * self.tiles_per_cluster + pos) as u32)
    }

    /// The tiles of cluster `cluster`, ascending.
    pub fn cluster_tiles(self, cluster: usize) -> impl Iterator<Item = TileId> {
        (0..self.tiles_per_cluster).map(move |pos| self.cluster_tile(cluster, pos))
    }
}

/// A tile's free list: the molecules of the tile no region has
/// configured.
///
/// Regions draw molecules from their home tile first and from sibling
/// tiles of the cluster when the home tile runs out (§3.4, "Where to
/// add?"). A tile hands out its highest free id first and takes a
/// returned molecule back on top.
///
/// ```
/// use molcache_core::tile::Tile;
///
/// let mut t = Tile::new(0, 2);
/// let granted = t.take_free().expect("fresh tiles are all free");
/// assert_eq!(t.free_count(), 1);
/// t.release(granted);
/// assert_eq!(t.free_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Tile {
    free: Vec<MoleculeId>,
}

impl Tile {
    /// A tile of the `count` molecules from id `base` on, all free.
    pub fn new(base: usize, count: usize) -> Self {
        Tile {
            free: (base..base + count).map(|i| MoleculeId(i as u32)).collect(),
        }
    }

    /// Number of currently free molecules.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Takes one free molecule, if any.
    pub fn take_free(&mut self) -> Option<MoleculeId> {
        self.free.pop()
    }

    /// Returns a molecule of this tile to the free pool.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the molecule is already free.
    pub fn release(&mut self, id: MoleculeId) {
        debug_assert!(!self.free.contains(&id), "double release");
        self.free.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile() -> Tile {
        Tile::new(0, 4)
    }

    #[test]
    fn all_molecules_start_free() {
        let t = tile();
        assert_eq!(t.free_count(), 4);
    }

    #[test]
    fn take_and_release_roundtrip() {
        let mut t = tile();
        let a = t.take_free().unwrap();
        let b = t.take_free().unwrap();
        assert_ne!(a, b);
        assert_eq!(t.free_count(), 2);
        t.release(a);
        assert_eq!(t.free_count(), 3);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut t = tile();
        for _ in 0..4 {
            assert!(t.take_free().is_some());
        }
        assert!(t.take_free().is_none());
    }

    #[test]
    fn cluster_holds_tiles() {
        let topo = Topology::new(8, 2);
        assert!(topo.cluster_tiles(2).eq([TileId(4), TileId(5)]));
        for t in 0..12 {
            let tile = TileId(t);
            assert!(topo.cluster_tiles(topo.cluster_of(tile)).any(|c| c == tile));
        }
    }

    #[test]
    fn molecules_map_to_their_tile() {
        // A power-of-two tile takes the shift path, a ragged one the
        // division; both agree with the tile ranges `tile_base` names.
        for tile_molecules in [8, 6] {
            let topo = Topology::new(tile_molecules, 4);
            for m in 0..5 * tile_molecules as u32 {
                let tile = topo.tile_of(MoleculeId(m));
                let base = topo.tile_base(tile);
                assert!((base..base + tile_molecules).contains(&(m as usize)));
            }
        }
    }
}
