//! Cache geometry configuration.

use crate::error::SimError;
use std::fmt;

/// Geometry and timing of a set-associative cache.
///
/// ```
/// use molcache_sim::CacheConfig;
/// let cfg = CacheConfig::new(8 << 20, 8, 64)?; // 8 MB, 8-way, 64 B lines
/// assert_eq!(cfg.num_sets(), (8 << 20) / 8 / 64);
/// # Ok::<(), molcache_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: u64,
    assoc: u32,
    line_size: u64,
    ports: u32,
}

impl CacheConfig {
    /// Hit latency in cycles (L2-class array).
    pub const HIT_LATENCY: u32 = 12;
    /// Miss penalty in cycles (memory access), added on top of the hit
    /// latency.
    pub const MISS_PENALTY: u32 = 200;

    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidGeometry`] unless `size_bytes` and
    /// `line_size` are powers of two, `assoc >= 1`, and
    /// `size_bytes >= assoc * line_size`.
    pub fn new(size_bytes: u64, assoc: u32, line_size: u64) -> Result<Self, SimError> {
        if size_bytes == 0 || !size_bytes.is_power_of_two() {
            return Err(SimError::InvalidGeometry {
                field: "size_bytes",
                constraint: "must be a non-zero power of two",
            });
        }
        if line_size == 0 || !line_size.is_power_of_two() {
            return Err(SimError::InvalidGeometry {
                field: "line_size",
                constraint: "must be a non-zero power of two",
            });
        }
        if assoc == 0 {
            return Err(SimError::InvalidGeometry {
                field: "assoc",
                constraint: "must be at least 1",
            });
        }
        if size_bytes < assoc as u64 * line_size {
            return Err(SimError::InvalidGeometry {
                field: "size_bytes",
                constraint: "must hold at least one set (assoc * line_size)",
            });
        }
        if (size_bytes / (assoc as u64 * line_size)) == 0
            || !(size_bytes / (assoc as u64 * line_size)).is_power_of_two()
        {
            return Err(SimError::InvalidGeometry {
                field: "assoc",
                constraint: "set count (size / assoc / line) must be a power of two",
            });
        }
        Ok(CacheConfig {
            size_bytes,
            assoc,
            line_size,
            ports: 1,
        })
    }

    /// Sets the number of read/write ports (used by the power model).
    pub fn with_ports(mut self, ports: u32) -> Self {
        self.ports = ports.max(1);
        self
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.line_size)
    }

    /// Total number of line frames.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_size
    }

    /// Read/write ports.
    pub fn ports(&self) -> u32 {
        self.ports
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = self.size_bytes;
        if size >= 1 << 20 && size.trailing_zeros() >= 20 {
            write!(f, "{}MB", size >> 20)?;
        } else if size >= 1 << 10 {
            write!(f, "{}KB", size >> 10)?;
        } else {
            write!(f, "{}B", size)?;
        }
        if self.assoc == 1 {
            write!(f, " DM")?;
        } else {
            write!(f, " {}way", self.assoc)?;
        }
        write!(f, " {}B-line", self.line_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivations() {
        let cfg = CacheConfig::new(1 << 20, 4, 64).unwrap();
        assert_eq!(cfg.num_sets(), 4096);
        assert_eq!(cfg.num_lines(), 16384);
        assert_eq!(cfg.assoc(), 4);
    }

    #[test]
    fn rejects_non_power_of_two_size() {
        assert!(CacheConfig::new(3 << 19, 4, 64).is_err());
    }

    #[test]
    fn rejects_zero_assoc() {
        assert!(CacheConfig::new(1 << 20, 0, 64).is_err());
    }

    #[test]
    fn rejects_cache_smaller_than_one_set() {
        assert!(CacheConfig::new(64, 2, 64).is_err());
    }

    #[test]
    fn fully_associative_single_set_allowed() {
        let cfg = CacheConfig::new(4096, 64, 64).unwrap();
        assert_eq!(cfg.num_sets(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            CacheConfig::new(8 << 20, 4, 64).unwrap().to_string(),
            "8MB 4way 64B-line"
        );
        assert_eq!(
            CacheConfig::new(8 << 10, 1, 64).unwrap().to_string(),
            "8KB DM 64B-line"
        );
    }

    #[test]
    fn builder_setters() {
        let cfg = CacheConfig::new(1 << 20, 2, 64).unwrap().with_ports(4);
        assert_eq!(cfg.ports(), 4);
    }
}
