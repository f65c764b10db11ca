//! Order-independent comparison of a draw's outputs with the sequential
//! specification's (Theorem 3.5: equal as multisets).
//!
//! Every output is reduced to a 64-bit key by the workload (`out_key`).
//! The common case — a correct draw — is decided in one pass by a
//! commutative fingerprint; only on a mismatch are both key lists sorted to
//! count how many outputs are missing or surplus. Neither path renders
//! `Debug` strings, which at 6–12 M outputs costs seconds and gigabytes.

/// Finalizer of SplitMix64: spreads a structured key over all 64 bits so
/// that sums of keys do not cancel.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Commutative summary of a multiset of keys: equal multisets give equal
/// fingerprints whatever the order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub count: u64,
    sum: u64,
    sum_sq: u64,
}

impl Fingerprint {
    pub fn of(keys: impl IntoIterator<Item = u64>) -> Self {
        let mut f = Fingerprint::default();
        for k in keys {
            let h = mix(k);
            f.count += 1;
            f.sum = f.sum.wrapping_add(h);
            f.sum_sq = f.sum_sq.wrapping_add(h.wrapping_mul(h | 1));
        }
        f
    }
}

/// Size of the multiset difference between `got` and `want`: outputs the
/// specification has and the draw lacks, plus outputs the draw has and the
/// specification lacks. Sorts both lists.
pub fn multiset_diff(got: &mut [u64], want: &mut [u64]) -> u64 {
    got.sort_unstable();
    want.sort_unstable();
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < got.len() && j < want.len() {
        match got[i].cmp(&want[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (got.len() - i) as u64 + (want.len() - j) as u64
}

/// The specification's outputs, reduced once per process; every draw is
/// checked against it outside the timed window.
pub struct Reference {
    keys: Vec<u64>,
    fingerprint: Fingerprint,
}

impl Reference {
    pub fn new(keys: Vec<u64>) -> Self {
        let fingerprint = Fingerprint::of(keys.iter().copied());
        Reference { keys, fingerprint }
    }

    /// Outputs the specification produces (the `attempted` of one draw).
    pub fn expected(&self) -> u64 {
        self.fingerprint.count
    }

    /// Outputs of one draw that are missing or surplus; 0 for a correct
    /// draw.
    pub fn failed(&self, got: impl Iterator<Item = u64> + Clone) -> u64 {
        if Fingerprint::of(got.clone()) == self.fingerprint {
            return 0;
        }
        let mut got: Vec<u64> = got.collect();
        multiset_diff(&mut got, &mut self.keys.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<u64> {
        (0..10_000u64).map(|i| i % 97).collect()
    }

    #[test]
    fn order_does_not_matter() {
        let reference = Reference::new(keys());
        let mut shuffled = keys();
        shuffled.reverse();
        shuffled.rotate_left(1234);
        assert_eq!(reference.failed(shuffled.iter().copied()), 0);
        assert_eq!(reference.expected(), 10_000);
    }

    /// The harness check the issue asks for: one output dropped and one
    /// duplicated are both counted, even though the count is unchanged.
    #[test]
    fn planted_drop_and_duplicate_are_both_counted() {
        let reference = Reference::new(keys());
        let mut got = keys();
        let dropped = got.remove(17);
        assert_eq!(reference.failed(got.iter().copied()), 1, "a dropped output");
        let dup = got[4321];
        assert_ne!(dup, dropped);
        got.push(dup);
        assert_eq!(got.len(), keys().len());
        assert_eq!(
            reference.failed(got.iter().copied()),
            2,
            "dropped + duplicated"
        );
    }

    #[test]
    fn diff_counts_both_sides() {
        assert_eq!(multiset_diff(&mut [1, 2, 2, 3], &mut [2, 3, 3, 4]), 4);
        assert_eq!(multiset_diff(&mut [], &mut [5, 5]), 2);
        assert_eq!(multiset_diff(&mut [5, 5], &mut [5, 5]), 0);
    }

    #[test]
    fn fingerprint_tells_multiplicity_apart() {
        // Same set, different multiplicities, same count.
        assert_ne!(Fingerprint::of([1, 1, 2]), Fingerprint::of([1, 2, 2]));
        assert_eq!(Fingerprint::of([1, 2, 1]), Fingerprint::of([2, 1, 1]));
    }
}
