//! Dense ASID-indexed region table.
//!
//! The access fast path resolves `ASID → region` several times per
//! request (home-tile lookup, hit bookkeeping, victim selection). A
//! `BTreeMap` pays a tree walk for each of those; this table indexes a
//! flat `Vec` by the raw 16-bit ASID instead, making every lookup O(1)
//! while preserving the ascending-ASID iteration order that
//! [`snapshots`](crate::MolecularCache::snapshots) and the resize rounds
//! rely on.

use crate::region::Region;
use molcache_trace::Asid;

/// Maps ASIDs to their cache regions with O(1) lookup and ordered
/// iteration. API mirrors the `BTreeMap` subset it replaced so call
/// sites read identically.
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    /// Slot per raw ASID value; `None` where no region exists.
    slots: Vec<Option<Region>>,
    /// Occupied ASIDs in ascending order (the iteration order).
    asids: Vec<Asid>,
}

impl RegionTable {
    /// An empty table.
    pub fn new() -> Self {
        RegionTable::default()
    }

    fn idx(asid: Asid) -> usize {
        usize::from(asid.raw())
    }

    /// Whether `asid` has a region.
    pub fn contains_key(&self, asid: &Asid) -> bool {
        self.slots
            .get(Self::idx(*asid))
            .is_some_and(Option::is_some)
    }

    /// The region of `asid`, if any.
    pub fn get(&self, asid: &Asid) -> Option<&Region> {
        self.slots.get(Self::idx(*asid)).and_then(Option::as_ref)
    }

    /// Mutable access to the region of `asid`, if any.
    pub fn get_mut(&mut self, asid: &Asid) -> Option<&mut Region> {
        self.slots
            .get_mut(Self::idx(*asid))
            .and_then(Option::as_mut)
    }

    /// Inserts a region for `asid`, returning the one it replaced.
    pub fn insert(&mut self, asid: Asid, region: Region) -> Option<Region> {
        let i = Self::idx(asid);
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let prev = self.slots[i].replace(region);
        if prev.is_none() {
            let pos = self
                .asids
                .binary_search(&asid)
                .expect_err("asid absent when slot was empty");
            self.asids.insert(pos, asid);
        }
        prev
    }

    /// Removes and returns the region of `asid`, if any.
    pub fn remove(&mut self, asid: &Asid) -> Option<Region> {
        let region = self.slots.get_mut(Self::idx(*asid))?.take()?;
        let pos = self
            .asids
            .binary_search(asid)
            .expect("asid present when slot was occupied");
        self.asids.remove(pos);
        Some(region)
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.asids.len()
    }

    /// Whether the table holds no regions.
    pub fn is_empty(&self) -> bool {
        self.asids.is_empty()
    }

    /// ASIDs with regions, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &Asid> {
        self.asids.iter()
    }

    /// Regions in ascending-ASID order.
    pub fn values(&self) -> impl Iterator<Item = &Region> {
        self.iter().map(|(_, r)| r)
    }

    /// `(asid, region)` pairs in ascending-ASID order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            table: self,
            pos: 0,
        }
    }
}

impl std::ops::Index<&Asid> for RegionTable {
    type Output = Region;

    fn index(&self, asid: &Asid) -> &Region {
        self.get(asid).expect("no region for asid")
    }
}

/// Ordered iterator over a [`RegionTable`].
#[derive(Debug)]
pub struct Iter<'a> {
    table: &'a RegionTable,
    pos: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Asid, &'a Region);

    fn next(&mut self) -> Option<Self::Item> {
        let asid = self.table.asids.get(self.pos)?;
        self.pos += 1;
        let region = self.table.slots[RegionTable::idx(*asid)]
            .as_ref()
            .expect("indexed asid has a region");
        Some((asid, region))
    }
}

impl<'a> IntoIterator for &'a RegionTable {
    type Item = (&'a Asid, &'a Region);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegionPolicy;
    use crate::ids::TileId;

    fn region(asid: u16) -> Region {
        Region::new(Asid::new(asid), TileId(0), RegionPolicy::Randy, 1, 0.1, 64)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = RegionTable::new();
        assert!(t.is_empty());
        assert!(t.insert(Asid::new(5), region(5)).is_none());
        assert!(t.contains_key(&Asid::new(5)));
        assert!(!t.contains_key(&Asid::new(4)));
        assert_eq!(t.get(&Asid::new(5)).unwrap().asid(), Asid::new(5));
        assert_eq!(t.len(), 1);
        let removed = t.remove(&Asid::new(5)).unwrap();
        assert_eq!(removed.asid(), Asid::new(5));
        assert!(t.remove(&Asid::new(5)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn iteration_is_ascending_by_asid() {
        let mut t = RegionTable::new();
        for a in [9u16, 2, 40, 7] {
            t.insert(Asid::new(a), region(a));
        }
        let keys: Vec<u16> = t.keys().map(|a| a.raw()).collect();
        assert_eq!(keys, vec![2, 7, 9, 40]);
        let via_iter: Vec<u16> = t.iter().map(|(a, _)| a.raw()).collect();
        assert_eq!(via_iter, keys);
        let via_values: Vec<u16> = t.values().map(|r| r.asid().raw()).collect();
        assert_eq!(via_values, keys);
    }

    #[test]
    fn reinsert_replaces_without_duplicating_key() {
        let mut t = RegionTable::new();
        t.insert(Asid::new(3), region(3));
        assert!(t.insert(Asid::new(3), region(3)).is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no region for asid")]
    fn index_panics_on_missing_asid() {
        let t = RegionTable::new();
        let _ = &t[&Asid::new(1)];
    }
}
