//! Digests of simulated results, and the stored file they are checked
//! against.
//!
//! `digests.txt` holds one `<workload> <key> <hex>` line per digest,
//! recorded from the default seed; `#` starts a comment.

use std::collections::BTreeMap;

/// 64-bit FNV-1a of `text`.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digests stored for `workload`, by key.
pub fn parse(text: &str, workload: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, key, hex) = (f.next()?, f.next()?, f.next()?);
            (w == workload)
                .then(|| {
                    u64::from_str_radix(hex, 16)
                        .ok()
                        .map(|h| (key.to_string(), h))
                })
                .flatten()
        })
        .collect()
}

/// `text` with `workload`'s lines replaced by `digests`.
pub fn replace(text: &str, workload: &str, digests: &[(String, u64)]) -> String {
    let mut out: Vec<String> = text
        .lines()
        .filter(|l| l.split_whitespace().next() != Some(workload))
        .map(str::to_string)
        .collect();
    out.extend(
        digests
            .iter()
            .map(|(k, h)| format!("{workload} {k} {h:016x}")),
    );
    out.join("\n") + "\n"
}
