//! Merkle trees over SHA-256, used for SCADA application-state digests and
//! Prime checkpoint certificates: a replica can prove a single field-device
//! record is part of an agreed state digest without shipping the whole state.

use crate::sha256::{sha256_concat, Digest};

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
        let leaf_hashes: Vec<Digest> = leaves.into_iter().map(|l| hash_leaf(l.as_ref())).collect();
        assert!(
            !leaf_hashes.is_empty(),
            "merkle tree requires at least one leaf"
        );
        let mut levels = vec![leaf_hashes];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                match pair {
                    [l, r] => next.push(hash_node(l, r)),
                    [odd] => next.push(*odd), // promote
                    _ => unreachable!("chunks(2) yields 1 or 2 items"),
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
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

/// Computes the root [`MerkleTree::from_leaves`] would, without the tree:
/// leaves are pushed one at a time and only the roots of the complete
/// subtrees so far are kept, one per set bit of the leaf count. For a
/// signer or verifier that wants the root and no proofs.
///
/// # Examples
///
/// ```
/// use itcrypto::merkle::{MerkleTree, RootFold};
///
/// let leaves = [b"b10-1:open".as_slice(), b"b57:closed", b"b56:open"];
/// let mut fold = RootFold::new();
/// for leaf in leaves {
///     fold.push(leaf);
/// }
/// assert_eq!(fold.root(), MerkleTree::from_leaves(leaves).root());
/// ```
#[derive(Clone, Debug)]
pub struct RootFold {
    /// `stack[..count.count_ones()]` holds the subtree roots, largest
    /// (leftmost) first; a `u64` count needs at most 64.
    stack: [Digest; 64],
    count: u64,
}

impl Default for RootFold {
    fn default() -> Self {
        Self::new()
    }
}

impl RootFold {
    /// A fold over no leaves yet.
    pub fn new() -> Self {
        RootFold {
            stack: [Digest::ZERO; 64],
            count: 0,
        }
    }

    /// Appends the next leaf.
    pub fn push(&mut self, leaf: &[u8]) {
        let mut top = self.count.count_ones() as usize;
        self.stack[top] = hash_leaf(leaf);
        self.count += 1;
        // Adding one carries through the trailing set bits of the old
        // count: each carry joins two subtrees of equal size.
        for _ in 0..self.count.trailing_zeros() {
            self.stack[top - 1] = hash_node(&self.stack[top - 1], &self.stack[top]);
            top -= 1;
        }
    }

    /// The root over the leaves pushed. An incomplete right edge is joined
    /// smallest subtree first, which is where the tree's promotion of an
    /// odd node puts it.
    ///
    /// # Panics
    ///
    /// Panics if no leaf was pushed, as [`MerkleTree::from_leaves`] does.
    pub fn root(&self) -> Digest {
        let (last, rest) = self.stack[..self.count.count_ones() as usize]
            .split_last()
            .expect("merkle tree requires at least one leaf");
        rest.iter()
            .rfold(*last, |right, left| hash_node(left, &right))
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

    #[test]
    fn root_fold_equals_the_tree_root_for_all_sizes() {
        for n in 1..=130 {
            let ls = leaves(n);
            let mut fold = RootFold::new();
            for l in &ls {
                fold.push(l);
            }
            assert_eq!(fold.root(), MerkleTree::from_leaves(&ls).root(), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_root_fold_panics() {
        let _ = RootFold::new().root();
    }

    /// Sixteen one-block leaves and fifteen two-block nodes (a node is a
    /// five-byte prefix and two digests, which with padding is past 64
    /// bytes): the fold hashes what the tree hashes and nothing more.
    #[test]
    fn a_sixteen_leaf_root_costs_46_compressions() {
        use crate::sha256::probe::compressions;
        let ls = leaves(16);
        let fold = || {
            let mut fold = RootFold::new();
            for l in &ls {
                fold.push(l);
            }
            _ = fold.root();
        };
        assert_eq!(compressions(fold), 16 + 15 * 2);
        assert_eq!(compressions(|| _ = MerkleTree::from_leaves(&ls).root()), 46);
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
