//! Merkle trees over SHA-256, used for SCADA application-state digests and
//! Prime checkpoint certificates: a replica can prove a single field-device
//! record is part of an agreed state digest without shipping the whole state.

use crate::sha256::{sha256_concat, sha256_concat2, Digest};

/// Domain-separation prefixes so leaves can never be confused with interior
/// nodes (second-preimage hardening).
const LEAF_PREFIX: &[u8] = b"\x00leaf";
const NODE_PREFIX: &[u8] = b"\x01node";

fn hash_leaf(data: &[u8]) -> Digest {
    sha256_concat(&[LEAF_PREFIX, data])
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[NODE_PREFIX, left.as_bytes(), right.as_bytes()])
}

/// The leaf level: every leaf's hash, two leaves at a time
/// ([`sha256_concat2`]).
///
/// # Panics
///
/// Panics if there are no leaves.
fn leaf_level<I, B>(leaves: I) -> Vec<Digest>
where
    I: IntoIterator<Item = B>,
    B: AsRef<[u8]>,
{
    let mut leaves = leaves.into_iter();
    let mut level = Vec::with_capacity(leaves.size_hint().0);
    let mut padded = Default::default();
    while let Some(a) = leaves.next() {
        match leaves.next() {
            Some(b) => level.extend(sha256_concat2(
                [&[LEAF_PREFIX, a.as_ref()], &[LEAF_PREFIX, b.as_ref()]],
                &mut padded,
            )),
            None => level.push(hash_leaf(a.as_ref())),
        }
    }
    assert!(!level.is_empty(), "merkle tree requires at least one leaf");
    level
}

/// The level above `level`: nodes `(0, 1)`, `(2, 3)`, … joined, two joins
/// at a time, and an odd last node promoted. The one way a level is built,
/// behind [`MerkleTree::from_leaves`] and [`MerkleTree::root_of`].
fn level_above(level: &[Digest]) -> Vec<Digest> {
    let mut above = Vec::with_capacity(level.len().div_ceil(2));
    let mut padded = Default::default();
    for nodes in level.chunks(4) {
        match nodes {
            [a, b, c, d] => above.extend(sha256_concat2(
                [
                    &[NODE_PREFIX, a.as_bytes(), b.as_bytes()],
                    &[NODE_PREFIX, c.as_bytes(), d.as_bytes()],
                ],
                &mut padded,
            )),
            [a, b, c] => above.extend([hash_node(a, b), *c]),
            [a, b] => above.push(hash_node(a, b)),
            [odd] => above.push(*odd),
            _ => unreachable!("chunks(4) yields 1 to 4 nodes"),
        }
    }
    above
}

/// A Merkle tree built over an ordered list of byte-string leaves.
///
/// An odd node at the end of a level is promoted (Bitcoin-style duplication
/// is avoided because it admits trivial collisions between leaf lists).
///
/// # Examples
///
/// ```
/// use itcrypto::merkle::MerkleTree;
///
/// let tree = MerkleTree::from_leaves([b"b10-1:open".as_slice(), b"b57:closed", b"b56:open"]);
/// let proof = tree.prove(1).expect("index in range");
/// assert!(MerkleTree::verify(tree.root(), b"b57:closed", &proof));
/// assert!(!MerkleTree::verify(tree.root(), b"b57:open", &proof));
/// ```
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels[0] is the leaf level; the last level holds the single root.
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: sibling hashes from leaf to root with direction bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// Leaf index this proof was generated for.
    pub index: usize,
    /// `(sibling, sibling_is_left)` from bottom to top. Levels where the node
    /// was promoted without a sibling are skipped.
    pub path: Vec<(Digest, bool)>,
}

impl MerkleTree {
    /// Builds a tree from leaf byte strings.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty; an empty state has no meaningful digest
    /// and callers use [`Digest::ZERO`] for that case.
    pub fn from_leaves<I, B>(leaves: I) -> Self
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let mut levels = vec![leaf_level(leaves)];
        while levels.last().expect("nonempty").len() > 1 {
            let above = level_above(levels.last().expect("nonempty"));
            levels.push(above);
        }
        MerkleTree { levels }
    }

    /// The root [`MerkleTree::from_leaves`] would have, built the same
    /// way, level by level, without keeping the levels: for a signer or
    /// verifier that wants the root and no proofs.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty, as [`MerkleTree::from_leaves`] does.
    ///
    /// # Examples
    ///
    /// ```
    /// use itcrypto::merkle::MerkleTree;
    ///
    /// let leaves = [b"b10-1:open".as_slice(), b"b57:closed", b"b56:open"];
    /// assert_eq!(MerkleTree::root_of(leaves), MerkleTree::from_leaves(leaves).root());
    /// ```
    pub fn root_of<I, B>(leaves: I) -> Digest
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let mut level = leaf_level(leaves);
        while level.len() > 1 {
            level = level_above(&level);
        }
        level[0]
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Produces an inclusion proof for leaf `index`, or `None` if out of range.
    pub fn prove(&self, index: usize) -> Option<Proof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if idx.is_multiple_of(2) {
                idx + 1
            } else {
                idx - 1
            };
            if sibling < level.len() {
                path.push((level[sibling], sibling < idx));
            }
            idx /= 2;
        }
        Some(Proof { index, path })
    }

    /// Verifies that `leaf_data` is included under `root` via `proof`.
    pub fn verify(root: Digest, leaf_data: &[u8], proof: &Proof) -> bool {
        proof.fold_root(leaf_data) == root
    }
}

impl Proof {
    /// Folds `leaf_data` up the proof path and returns the root the proof
    /// commits to. Callers that authenticate roots by signature (Prime's
    /// batched pre-ordering) fold first, then check the signature over
    /// the folded root — a corrupted leaf or path yields a different
    /// root, so the signature check fails exactly as it would have for
    /// the full leaf set.
    pub fn fold_root(&self, leaf_data: &[u8]) -> Digest {
        let mut acc = hash_leaf(leaf_data);
        for (sibling, sibling_is_left) in &self.path {
            acc = if *sibling_is_left {
                hash_node(sibling, &acc)
            } else {
                hash_node(&acc, sibling)
            };
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::from_leaves([b"only".as_slice()]);
        assert_eq!(t.root(), hash_leaf(b"only"));
        assert_eq!(t.leaf_count(), 1);
        let p = t.prove(0).expect("in range");
        assert!(p.path.is_empty());
        assert!(MerkleTree::verify(t.root(), b"only", &p));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let ls = leaves(n);
            let t = MerkleTree::from_leaves(&ls);
            for (i, l) in ls.iter().enumerate() {
                let p = t.prove(i).expect("in range");
                assert!(MerkleTree::verify(t.root(), l, &p), "n={n} i={i}");
            }
        }
    }

    /// The root as the tree was once built: one leaf and one join at a
    /// time.
    fn one_at_a_time_root(leaves: &[Vec<u8>]) -> Digest {
        let mut level: Vec<Digest> = leaves.iter().map(|l| hash_leaf(l)).collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match pair {
                    [l, r] => hash_node(l, r),
                    [odd] => *odd,
                    _ => unreachable!("chunks(2) yields 1 or 2 nodes"),
                })
                .collect();
        }
        level[0]
    }

    /// Leaves of 0 to 130 bytes, so that the two messages of a pair often
    /// differ in block count and one finishes alone.
    fn ragged_leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; (i * 37) % 131]).collect()
    }

    #[test]
    fn paired_levels_equal_the_one_at_a_time_root_for_all_sizes() {
        crate::sha256::probe::on_each_backend(|| {
            for n in 1..=130 {
                let ls = ragged_leaves(n);
                let root = one_at_a_time_root(&ls);
                assert_eq!(MerkleTree::root_of(&ls), root, "n={n}");
                assert_eq!(MerkleTree::from_leaves(&ls).root(), root, "n={n}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_root_of_panics() {
        let _ = MerkleTree::root_of(Vec::<Vec<u8>>::new());
    }

    /// Sixteen leaves and fifteen two-block nodes (a node is a five-byte
    /// prefix and two digests, past 64 bytes once padded): pairs hash what
    /// one at a time hashed and nothing more. A Prime batch member's leaf
    /// is a composite sequence (8 bytes) and a signed update (32 bytes
    /// plus the payload) behind the five-byte leaf prefix: payloads of up
    /// to ten bytes keep it in one block (46 compressions a root), longer
    /// ones take two (62).
    #[test]
    fn sixteen_leaf_roots_cost_what_one_at_a_time_did() {
        use crate::sha256::probe::compressions;
        let members = |payload: usize| vec![vec![0x5a; 8 + 32 + payload]; 16];
        for (ls, cost) in [
            (leaves(16), 16 + 15 * 2),
            (members(10), 46),
            (members(11), 16 * 2 + 15 * 2),
            (members(24), 62),
        ] {
            assert_eq!(compressions(|| _ = one_at_a_time_root(&ls)), cost);
            assert_eq!(compressions(|| _ = MerkleTree::root_of(&ls)), cost);
            assert_eq!(
                compressions(|| _ = MerkleTree::from_leaves(&ls).root()),
                cost
            );
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let ls = leaves(8);
        let t = MerkleTree::from_leaves(&ls);
        let p = t.prove(3).expect("in range");
        assert!(!MerkleTree::verify(t.root(), b"leaf-4", &p));
    }

    #[test]
    fn proof_for_wrong_index_fails() {
        let ls = leaves(8);
        let t = MerkleTree::from_leaves(&ls);
        let p = t.prove(3).expect("in range");
        assert!(!MerkleTree::verify(t.root(), b"leaf-2", &p));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let t = MerkleTree::from_leaves(leaves(4));
        assert!(t.prove(4).is_none());
    }

    #[test]
    fn different_leaf_sets_different_roots() {
        let a = MerkleTree::from_leaves(leaves(5));
        let mut ls = leaves(5);
        ls[2] = b"tampered".to_vec();
        let b = MerkleTree::from_leaves(&ls);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn order_matters() {
        let a = MerkleTree::from_leaves([b"x".as_slice(), b"y"]);
        let b = MerkleTree::from_leaves([b"y".as_slice(), b"x"]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A tree over [h] where h happens to equal an interior encoding must
        // not collide with the two-leaf tree, thanks to prefixes.
        let two = MerkleTree::from_leaves([b"a".as_slice(), b"b"]);
        let concat = [
            NODE_PREFIX,
            hash_leaf(b"a").as_bytes(),
            hash_leaf(b"b").as_bytes(),
        ]
        .concat();
        let one = MerkleTree::from_leaves([concat.as_slice()]);
        assert_ne!(two.root(), one.root());
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_panics() {
        let _ = MerkleTree::from_leaves(Vec::<Vec<u8>>::new());
    }
}
