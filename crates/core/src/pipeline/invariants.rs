//! Cross-stage structural invariants and placement diagnostics.
//!
//! The pipeline stages each touch a slice of the cache's state; the
//! checks here span stages and validate what no single stage can see on
//! its own — chiefly that every member holds each block of its region
//! wholly or not at all, so that the fill stage never puts a line into
//! two molecules of one region, and where a block fill actually landed
//! (used by the line-factor property tests).

use crate::cache::MolecularCache;
use crate::ids::MoleculeId;
use molcache_trace::{Asid, LineAddr};

impl MolecularCache {
    /// Checks the structural invariant that no line is resident in more
    /// than one molecule of the same region (diagnostics / property
    /// tests). Returns an ASID owning a duplicated line, if any.
    ///
    /// One pass over every molecule: resident lines are keyed by
    /// `(owning ASID, line)` in a hash set, so the scan is linear in the
    /// cache's resident lines instead of quadratic per region. Free
    /// molecules carry [`Asid::NONE`] and are skipped — they belong to no
    /// region, exactly as the per-region scan never visited them.
    pub fn find_duplicate_line(&self) -> Option<Asid> {
        let mut seen: std::collections::HashSet<(Asid, LineAddr)> =
            std::collections::HashSet::new();
        for m in (0..self.cfg.total_molecules()).map(|i| MoleculeId(i as u32)) {
            let asid = self.tags.asid_of(m);
            if asid == Asid::NONE {
                continue;
            }
            for line in self.tags.resident_lines(m) {
                if !seen.insert((asid, line)) {
                    return Some(asid);
                }
            }
        }
        None
    }

    /// Checks that every member molecule holds each block of its
    /// region's line factor `k` wholly or not at all: for every resident
    /// line, every line of its aligned `k`-line block is resident in the
    /// same molecule (diagnostics / property tests). The fill stage
    /// relies on it: a lookup miss then means no member holds any line
    /// of the block. Returns the first molecule holding part of a block,
    /// if any.
    pub fn find_partial_block(&self) -> Option<MoleculeId> {
        self.regions.values().find_map(|region| {
            let k = u64::from(region.line_factor());
            region.molecules().find(|&m| {
                self.tags.resident_lines(m).any(|line| {
                    let start = line.0 - line.0 % k;
                    (start..start + k).any(|l| !self.tags.lookup(m, LineAddr(l)))
                })
            })
        })
    }

    /// Checks that every molecule's kept valid-frame count (the
    /// occupancy epoch close reads, and the bound a flush walks to)
    /// equals a recount of its valid frames (diagnostics / property
    /// tests). Returns the first molecule whose count is off, if any.
    pub fn find_miscounted_molecule(&self) -> Option<MoleculeId> {
        (0..self.cfg.total_molecules())
            .map(|i| MoleculeId(i as u32))
            .find(|&m| self.tags.occupancy(m) != self.tags.resident_lines(m).count())
    }

    /// The region molecule of `asid` in which `line` is resident, if any
    /// (diagnostics).
    pub fn resident_molecule_of(&self, asid: Asid, line: LineAddr) -> Option<MoleculeId> {
        let region = self.regions.get(&asid)?;
        region.molecules().find(|id| self.tags.lookup(*id, line))
    }

    /// The frame of `molecule` in which `line` is resident, if any
    /// (diagnostics: frames map lines direct-mapped, `line % frames`).
    pub fn resident_frame_of(&self, molecule: MoleculeId, line: LineAddr) -> Option<usize> {
        self.tags
            .lookup(molecule, line)
            .then(|| (line.0 % self.tags.frames_per_molecule() as u64) as usize)
    }

    /// The replacement-view row of `molecule` within `asid`'s region, if
    /// it is a member (diagnostics: Randy's victim-row boundaries).
    pub fn region_row_of(&self, asid: Asid, molecule: MoleculeId) -> Option<usize> {
        let region = self.regions.get(&asid)?;
        (0..region.num_rows()).find(|&i| region.row(i).contains(&molecule))
    }
}
