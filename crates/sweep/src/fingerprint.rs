//! Content fingerprints for sweep cells and simulation jobs.
//!
//! A fingerprint is an FNV-1a hash chained over the workload's `Debug`
//! form, both configuration `Debug` forms, and the cell label. Any change
//! to the workload, the configuration, or the naming produces a new
//! fingerprint, so journals and memo stores can never resurrect stale
//! results.

use subwarp_core::{SiConfig, SmConfig, Workload};

/// FNV-1a over `bytes`, chained from `seed` (`0` selects the standard
/// offset basis).
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = Fnv::from_seed(seed);
    h.eat(bytes);
    h.0
}

/// FNV-1a state, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn from_seed(seed: u64) -> Fnv {
        Fnv(if seed == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            seed
        })
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

/// [`fnv1a`] over `value`'s `Debug` form, fed to the hash as the formatter
/// produces it: a workload's form is ~100 KB, and building it as a string
/// only to hash it fragments the heap.
fn fnv1a_debug(seed: u64, value: &dyn std::fmt::Debug) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv::from_seed(seed);
    write!(h, "{value:?}").expect("writing to a hash cannot fail");
    h.0
}

/// Content fingerprint of one sweep cell: the workload and both configs in
/// their `Debug` forms, chained through FNV-1a with the cell label. Any
/// change to the workload, the configuration, or the naming produces a new
/// fingerprint, so journals can never resurrect stale results.
pub fn cell_fingerprint(label: &str, workload_hash: u64, sm: &SmConfig, si: &SiConfig) -> u64 {
    let h = fnv1a(workload_hash, label.as_bytes());
    fnv1a_debug(fnv1a_debug(h, sm), si)
}

/// FNV-1a hash of a workload's `Debug` form — precomputed once per sweep
/// row (or once per cached service workload) so per-cell fingerprinting
/// does not re-render large workloads.
pub fn workload_hash(wl: &Workload) -> u64 {
    fnv1a_debug(0, wl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_hashes_equal_hashes_of_the_rendered_forms() {
        let wl = subwarp_workloads::figure9_workload();
        let (sm, si) = (SmConfig::turing_like(), SiConfig::best());
        let rendered = |seed, s: String| fnv1a(seed, s.as_bytes());
        let wh = rendered(0, format!("{wl:?}"));
        assert_eq!(workload_hash(&wl), wh);
        let h = fnv1a(wh, b"toy/si");
        let h = rendered(rendered(h, format!("{sm:?}")), format!("{si:?}"));
        assert_eq!(cell_fingerprint("toy/si", wh, &sm, &si), h);
    }
}
