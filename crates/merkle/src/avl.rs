//! A persistent, authenticated Merkle AVL tree in the style of Merk.
//!
//! This is the structure behind the store-resident address index: a
//! balanced binary search tree whose **every node carries a full
//! key/value pair** and whose nodes are stored in a backing key-value
//! store *addressed by their own key*. Reading any entry is therefore a
//! single point read — no root-to-leaf traversal against storage — and
//! updating one entry rewrites only the O(log n) nodes on its path.
//!
//! # The three-level hash hierarchy
//!
//! Following Merk (SNIPPETS.md §2–3), each node commits to its contents
//! in three layers, so proofs can reveal a value, just its hash, or just
//! the combined `kv_hash` as needed:
//!
//! ```text
//! value_hash = H(VALUE_TAG ‖ varint(len(value)) ‖ value)
//! kv_hash    = H(KV_TAG    ‖ varint(len(key)) ‖ key ‖ value_hash)
//! node_hash  = H(NODE_TAG  ‖ kv_hash
//!                          ‖ left.hash  ‖ left.height
//!                          ‖ right.hash ‖ right.height)
//! ```
//!
//! Missing children contribute [`Hash256::ZERO`] and height `0`. Child
//! *heights* are committed alongside child hashes, so the AVL shape
//! itself is authenticated: a store that serves a node whose subtree
//! height disagrees with what its parent committed to is detected
//! exactly like a flipped value byte.
//!
//! # Verified fetches
//!
//! Tree descents ([`AvlTree::get`], [`AvlTree::scan_prefix`],
//! [`AvlTree::verify_walk`]) re-hash every node they fetch and compare
//! against the hash committed by the parent link (or the root link for
//! the first node). A corrupted, truncated, or swapped node therefore
//! surfaces as [`AvlError::CorruptNode`] — never as a wrong answer.
//!
//! # Pending links: hash at commit, not at insert
//!
//! An edit rewrites the O(log n) nodes on its path and the next edit
//! through the same ancestors rewrites them again; only the last
//! version of each is ever read by hash. So [`AvlTree::insert`] and
//! [`AvlTree::remove`] hand back *pending* links — key and height, no
//! hash — and [`AvlTree::commit`] walks them children-first, hashing
//! every rewritten node exactly once. Rotations look at heights only,
//! so shape and hashes are the ones eager hashing produced.
//!
//! Skipping the hash check on a pending link weakens nothing: it
//! carries no [`NodeAddr`], so it can only resolve to a node this
//! process put in the store's write set since the last commit — there
//! is no earlier hash it could disagree with. Everything a *committed*
//! link reaches, i.e. every node decoded from storage, is verified as
//! before, and a committed link over a node with pending children is
//! [`AvlError::CorruptNode`]. A pending link has no encoding, and
//! whatever reads a hash ([`AvlTree::root_hash`], [`AvlTree::prove`])
//! wants the tree committed first. The price: a pending link names its
//! node by key alone, so the nodes a *failed* edit already put shadow
//! the versions the tree still links to — after an `Err` from `insert`
//! or `remove`, drop the uncommitted state (tree handle and write set)
//! and restart from the last committed root.

use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

use lvq_codec::{compact_size_len, write_compact_size, Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;

/// Domain tag of the value-hash layer.
const VALUE_TAG: u8 = 0x40;
/// Domain tag of the kv-hash layer.
const KV_TAG: u8 = 0x41;
/// Domain tag of the node-hash layer.
const NODE_TAG: u8 = 0x42;

/// Errors from authenticated tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AvlError {
    /// A fetched node failed verification against the hash and height
    /// its parent (or the root record) committed to, or a committed
    /// node is missing from the backing store entirely.
    CorruptNode {
        /// What exactly failed.
        detail: &'static str,
    },
    /// The backing node store failed (I/O, checksum, decode).
    Backend {
        /// Human-readable description of the storage failure.
        detail: String,
    },
}

impl fmt::Display for AvlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AvlError::CorruptNode { detail } => write!(f, "corrupt avl node: {detail}"),
            AvlError::Backend { detail } => write!(f, "avl node store error: {detail}"),
        }
    }
}

impl std::error::Error for AvlError {}

/// The hash of a value: `H(VALUE_TAG ‖ varint(len) ‖ value)`.
pub fn value_hash(value: &[u8]) -> Hash256 {
    let mut len = Vec::with_capacity(compact_size_len(value.len() as u64));
    write_compact_size(&mut len, value.len() as u64);
    Hash256::hash_parts(&[&[VALUE_TAG], &len, value])
}

/// The key/value hash: `H(KV_TAG ‖ varint(len(key)) ‖ key ‖ value_hash)`.
pub fn kv_hash(key: &[u8], value_hash: &Hash256) -> Hash256 {
    let mut len = Vec::with_capacity(compact_size_len(key.len() as u64));
    write_compact_size(&mut len, key.len() as u64);
    Hash256::hash_parts(&[&[KV_TAG], &len, key, value_hash.as_bytes()])
}

/// The node hash over a `kv_hash` and two child links (hash, height);
/// absent children are `(Hash256::ZERO, 0)`.
pub fn node_hash(kv: &Hash256, left: (Hash256, u8), right: (Hash256, u8)) -> Hash256 {
    Hash256::hash_parts(&[
        &[NODE_TAG],
        kv.as_bytes(),
        left.0.as_bytes(),
        &[left.1],
        right.0.as_bytes(),
        &[right.1],
    ])
}

/// Where a backing store keeps one committed node version: a record
/// position the store hands out and reads back. Opaque to the tree,
/// which only carries it from the link that names a node to the
/// [`AvlNodeStore::get_node`] call that loads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeAddr {
    /// Segment file number.
    pub segment: u32,
    /// Byte offset of the record within the segment.
    pub offset: u64,
    /// Record payload length in bytes.
    pub len: u32,
}

/// A reference to a child node: its key, the hash of the node it must
/// decode to, the height of the subtree rooted there, and (for stores
/// that address by position) where that exact version lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvlLink {
    /// The child node's key — also its address in the write set.
    pub key: Vec<u8>,
    /// The child's committed [`node_hash`]; `None` while the link is
    /// *pending* (the child was rewritten since the last
    /// [`AvlTree::commit`]).
    pub hash: Option<Hash256>,
    /// Height of the subtree rooted at the child (a lone leaf is 1).
    pub height: u8,
    /// Store address of the committed node, filled in by the store
    /// that wrote or decoded it and never encoded with the link; `None`
    /// for a node that (still) lives in the store's write set.
    pub addr: Option<NodeAddr>,
}

impl Encodable for AvlLink {
    /// # Panics
    ///
    /// On a pending link: it has no hash to encode, so writing one out
    /// would forge a commitment.
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.key.encode_into(out);
        self.hash
            .expect("a pending link has no encoding: commit the tree first")
            .encode_into(out);
        self.height.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.key.encoded_len() + Hash256::ZERO.encoded_len() + 1
    }
}

impl Decodable for AvlLink {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AvlLink {
            key: Vec::<u8>::decode_from(reader)?,
            hash: Some(Hash256::decode_from(reader)?),
            height: u8::decode_from(reader)?,
            addr: None,
        })
    }
}

/// One node of the tree: a full key/value pair plus links to up to two
/// children. Every node — inner or leaf — carries real data.
///
/// The node memoizes its own hashes: [`AvlNode::kv_hash`] (which hashes
/// the full value) and [`AvlNode::node_hash`] are computed at most once
/// per node version, so verified fetches of a cached node cost no
/// rehashing. All mutation happens inside this module, where every
/// mutating site invalidates the affected memo.
#[derive(Debug, Clone)]
pub struct AvlNode {
    /// The node's key (unique in the tree, BST-ordered bytewise).
    pub key: Vec<u8>,
    /// The node's value.
    pub value: Vec<u8>,
    /// Left child (all keys strictly smaller).
    pub left: Option<AvlLink>,
    /// Right child (all keys strictly greater).
    pub right: Option<AvlLink>,
    kv_memo: OnceLock<Hash256>,
    node_memo: OnceLock<Hash256>,
}

impl PartialEq for AvlNode {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
            && self.value == other.value
            && self.left == other.left
            && self.right == other.right
    }
}

impl Eq for AvlNode {}

/// What a parent hashes for this child; `None` while the link is
/// pending.
fn link_parts(link: &Option<AvlLink>) -> Option<(Hash256, u8)> {
    match link {
        Some(l) => Some((l.hash?, l.height)),
        None => Some((Hash256::ZERO, 0)),
    }
}

fn link_height(link: &Option<AvlLink>) -> u8 {
    link.as_ref().map_or(0, |l| l.height)
}

impl AvlNode {
    /// A fresh childless node.
    pub fn leaf(key: Vec<u8>, value: Vec<u8>) -> Self {
        AvlNode {
            key,
            value,
            left: None,
            right: None,
            kv_memo: OnceLock::new(),
            node_memo: OnceLock::new(),
        }
    }

    /// Forgets both memoized hashes; called after any key/value change.
    fn invalidate(&mut self) {
        self.kv_memo = OnceLock::new();
        self.node_memo = OnceLock::new();
    }

    /// Forgets the memoized node hash; called after a child link
    /// change (the kv layer is untouched by relinking).
    fn invalidate_links(&mut self) {
        self.node_memo = OnceLock::new();
    }

    /// Height of the subtree rooted here (1 for a leaf).
    pub fn height(&self) -> u8 {
        1 + link_height(&self.left).max(link_height(&self.right))
    }

    /// AVL balance factor: left height minus right height.
    pub fn balance(&self) -> i16 {
        link_height(&self.left) as i16 - link_height(&self.right) as i16
    }

    /// This node's [`kv_hash`] (memoized per node version).
    pub fn kv_hash(&self) -> Hash256 {
        *self
            .kv_memo
            .get_or_init(|| kv_hash(&self.key, &value_hash(&self.value)))
    }

    /// This node's [`node_hash`] — what the parent link commits to
    /// (memoized per node version); `None` while a child link is
    /// pending.
    pub fn node_hash(&self) -> Option<Hash256> {
        if let Some(hash) = self.node_memo.get() {
            return Some(*hash);
        }
        let hash = node_hash(
            &self.kv_hash(),
            link_parts(&self.left)?,
            link_parts(&self.right)?,
        );
        Some(*self.node_memo.get_or_init(|| hash))
    }

    /// Approximate resident footprint, used to bound node caches.
    pub fn resident_size(&self) -> usize {
        let link = |l: &Option<AvlLink>| l.as_ref().map_or(0, |l| l.key.len() + 40);
        self.key.len() + self.value.len() + link(&self.left) + link(&self.right) + 64
    }
}

impl Encodable for AvlNode {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.key.encode_into(out);
        self.value.encode_into(out);
        self.left.encode_into(out);
        self.right.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.key.encoded_len()
            + self.value.encoded_len()
            + self.left.encoded_len()
            + self.right.encoded_len()
    }
}

impl Decodable for AvlNode {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AvlNode {
            key: Vec::<u8>::decode_from(reader)?,
            value: Vec::<u8>::decode_from(reader)?,
            left: Option::<AvlLink>::decode_from(reader)?,
            right: Option::<AvlLink>::decode_from(reader)?,
            kv_memo: OnceLock::new(),
            node_memo: OnceLock::new(),
        })
    }
}

/// Node storage behind an [`AvlTree`]: a write set addressing the
/// nodes rewritten since the last commit *by their tree key*, in front
/// of whatever the store keeps committed versions in. Either way one
/// lookup reads one node.
///
/// Implementations must return nodes exactly as stored — verification
/// against the committed hashes happens in the tree layer on every
/// fetch.
pub trait AvlNodeStore {
    /// The node `link` names: the version at `link.addr` when the link
    /// carries one, else the write set's node under `link.key`; `None`
    /// if the store has no such node.
    ///
    /// # Errors
    ///
    /// Returns [`AvlError::Backend`] if the underlying storage fails.
    fn get_node(&self, link: &AvlLink) -> Result<Option<Arc<AvlNode>>, AvlError>;

    /// Puts `node` in the write set under `node.key`, replacing any
    /// earlier version there.
    ///
    /// # Errors
    ///
    /// Returns [`AvlError::Backend`] if the underlying storage fails.
    fn put_node(&mut self, node: AvlNode) -> Result<(), AvlError>;
}

/// An in-memory [`AvlNodeStore`] — the reference backend for tests and
/// for rebuilding indexes transiently.
#[derive(Debug, Default, Clone)]
pub struct MemoryNodes {
    nodes: std::collections::HashMap<Vec<u8>, Arc<AvlNode>>,
    puts: u64,
}

impl MemoryNodes {
    /// An empty store.
    pub fn new() -> Self {
        MemoryNodes::default()
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total `put_node` calls — the node-write amplification a test can
    /// assert O(log n) bounds on.
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Replaces the raw stored bytes of `key` — a corruption hook for
    /// tests (the tree must *detect* this, never serve it).
    pub fn tamper(&mut self, key: &[u8], f: impl FnOnce(&mut AvlNode)) -> bool {
        match self.nodes.get_mut(key) {
            Some(node) => {
                let mut tampered = (**node).clone();
                f(&mut tampered);
                tampered.invalidate();
                *node = Arc::new(tampered);
                true
            }
            None => false,
        }
    }
}

impl AvlNodeStore for MemoryNodes {
    fn get_node(&self, link: &AvlLink) -> Result<Option<Arc<AvlNode>>, AvlError> {
        Ok(self.nodes.get(&link.key).cloned())
    }

    fn put_node(&mut self, node: AvlNode) -> Result<(), AvlError> {
        self.puts += 1;
        self.nodes.insert(node.key.clone(), Arc::new(node));
        Ok(())
    }
}

/// Fetches the node a link points at and verifies it is byte-for-byte
/// the node the link committed to (hash *and* height). A pending link
/// has no hash to hold its node to and may only name a write-set node.
pub fn fetch<S: AvlNodeStore + ?Sized>(
    store: &S,
    link: &AvlLink,
) -> Result<Arc<AvlNode>, AvlError> {
    let node = store.get_node(link)?.ok_or(AvlError::CorruptNode {
        detail: "committed node missing from store",
    })?;
    if node.key != link.key {
        return Err(AvlError::CorruptNode {
            detail: "node stored under a different key",
        });
    }
    if node.height() != link.height {
        return Err(AvlError::CorruptNode {
            detail: "subtree height disagrees with parent link",
        });
    }
    match link.hash {
        Some(hash) if node.node_hash() != Some(hash) => Err(AvlError::CorruptNode {
            detail: "node hash disagrees with parent link",
        }),
        None if link.addr.is_some() => Err(AvlError::CorruptNode {
            detail: "pending link names a stored node version",
        }),
        _ => Ok(node),
    }
}

/// One ancestor on a proof path, root-first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvlProofStep {
    /// The ancestor's own `kv_hash` (its key/value stay hidden).
    pub kv_hash: Hash256,
    /// `true` if the proven key lies in the ancestor's left subtree.
    pub descend_left: bool,
    /// Height the ancestor's link to the on-path child committed.
    pub path_height: u8,
    /// Hash of the off-path child ([`Hash256::ZERO`] when absent).
    pub other_hash: Hash256,
    /// Height of the off-path child (0 when absent).
    pub other_height: u8,
}

/// A membership proof: the terminal node's key/value and child links,
/// plus the `kv_hash` and off-path link of every ancestor.
///
/// This is internal integrity evidence for the index (the LVQ wire
/// formats — BMT and SMT proofs — are unchanged); it lets tooling check
/// a single index entry against the anchored root without walking the
/// tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvlProof {
    /// The proven key.
    pub key: Vec<u8>,
    /// The proven value.
    pub value: Vec<u8>,
    /// Hash/height of the terminal node's left child.
    pub left: (Hash256, u8),
    /// Hash/height of the terminal node's right child.
    pub right: (Hash256, u8),
    /// Ancestors from the root down to the terminal node's parent.
    pub path: Vec<AvlProofStep>,
}

impl AvlProof {
    /// Verifies this proof binds `key → value` under `root`.
    pub fn verify(&self, root: Hash256, key: &[u8], value: &[u8]) -> bool {
        if self.key != key || self.value != value {
            return false;
        }
        let kv = kv_hash(key, &value_hash(value));
        let mut hash = node_hash(&kv, self.left, self.right);
        let mut height = 1 + self.left.1.max(self.right.1);
        for step in self.path.iter().rev() {
            if step.path_height != height {
                return false;
            }
            let me = (hash, height);
            let other = (step.other_hash, step.other_height);
            let (left, right) = if step.descend_left {
                (me, other)
            } else {
                (other, me)
            };
            hash = node_hash(&step.kv_hash, left, right);
            height = 1 + left.1.max(right.1);
        }
        hash == root
    }
}

/// The tree handle: just the root link. All node data lives in an
/// [`AvlNodeStore`]; the handle is cheap to clone and a 40-ish-byte
/// root record (key, hash, height) pins the entire structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AvlTree {
    root: Option<AvlLink>,
}

impl AvlTree {
    /// An empty tree.
    pub fn new() -> Self {
        AvlTree { root: None }
    }

    /// Adopts a root link restored from a checksummed root record.
    pub fn from_root(root: Option<AvlLink>) -> Self {
        AvlTree { root }
    }

    /// The current root link (`None` when empty).
    pub fn root(&self) -> Option<&AvlLink> {
        self.root.as_ref()
    }

    /// The root hash — [`Hash256::ZERO`] for an empty tree. This is the
    /// single value a root record must checksum to pin the whole index.
    ///
    /// # Panics
    ///
    /// If the tree was edited since its last [`AvlTree::commit`]: the
    /// hash of the current contents has not been computed.
    pub fn root_hash(&self) -> Hash256 {
        self.root.as_ref().map_or(Hash256::ZERO, |l| {
            l.hash
                .expect("commit the tree before reading its root hash")
        })
    }

    /// Hashes every node rewritten since the last commit — each exactly
    /// once, children before parents — and fills the hashes into the
    /// pending links above them, the root link last. Returns the number
    /// of nodes hashed. Touches only the store's write set.
    ///
    /// # Errors
    ///
    /// [`AvlError::CorruptNode`] if a pending link does not resolve in
    /// the write set, or a store error.
    pub fn commit<S: AvlNodeStore + ?Sized>(&mut self, store: &mut S) -> Result<u64, AvlError> {
        fn commit_link<S: AvlNodeStore + ?Sized>(
            store: &mut S,
            link: &mut AvlLink,
        ) -> Result<u64, AvlError> {
            if link.hash.is_some() {
                return Ok(0);
            }
            let mut node = (*fetch(store, link)?).clone();
            let mut hashed = 1;
            for child in [&mut node.left, &mut node.right].into_iter().flatten() {
                hashed += commit_link(store, child)?;
            }
            link.hash = Some(node.node_hash().expect("children just committed"));
            store.put_node(node)?;
            Ok(hashed)
        }
        self.root
            .as_mut()
            .map_or(Ok(0), |root| commit_link(store, root))
    }

    /// `true` if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Inserts or replaces `key → value`, rewriting the O(log n) nodes
    /// on the path (path copying: old node versions stay in the store
    /// until compaction, which is what makes torn-tail recovery easy).
    ///
    /// # Errors
    ///
    /// Any [`AvlError`] from the store, or [`AvlError::CorruptNode`] if
    /// a node on the path fails verification.
    pub fn insert<S: AvlNodeStore + ?Sized>(
        &mut self,
        store: &mut S,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), AvlError> {
        let new_root = insert_at(store, self.root.as_ref(), key, value)?;
        self.root = Some(new_root);
        Ok(())
    }

    /// Removes `key` from the tree, rewriting the O(log n) nodes on
    /// the path (path copying, like [`AvlTree::insert`]). Returns
    /// `true` if the key was present. A removed node's last stored
    /// version stays in the backing store until compaction — nothing
    /// in the new tree links to it, so verified reads never see it.
    ///
    /// # Errors
    ///
    /// Any [`AvlError`] from the store, or [`AvlError::CorruptNode`] if
    /// a node on the path fails verification.
    pub fn remove<S: AvlNodeStore + ?Sized>(
        &mut self,
        store: &mut S,
        key: &[u8],
    ) -> Result<bool, AvlError> {
        let (new_root, removed) = remove_at(store, self.root.as_ref(), key)?;
        if removed {
            self.root = new_root;
        }
        Ok(removed)
    }

    /// Authenticated point lookup: descends from the root, verifying
    /// every fetched node, and returns the node holding `key` (or
    /// `None` if the tree provably has no such key).
    ///
    /// # Errors
    ///
    /// [`AvlError::CorruptNode`] if any node on the path fails
    /// verification, or a backend error.
    pub fn get<S: AvlNodeStore + ?Sized>(
        &self,
        store: &S,
        key: &[u8],
    ) -> Result<Option<Arc<AvlNode>>, AvlError> {
        let mut link = self.root.clone();
        while let Some(l) = link {
            let node = fetch(store, &l)?;
            match key.cmp(node.key.as_slice()) {
                Ordering::Equal => return Ok(Some(node)),
                Ordering::Less => link = node.left.clone(),
                Ordering::Greater => link = node.right.clone(),
            }
        }
        Ok(None)
    }

    /// Visits every entry whose key starts with `prefix`, in key order,
    /// verifying every node on the way (an empty prefix walks the whole
    /// tree). Subtrees that cannot contain the prefix are pruned, so
    /// the cost is O(log n + matches).
    ///
    /// # Errors
    ///
    /// [`AvlError::CorruptNode`] on any verification failure, a backend
    /// error, or the first error from `visit`.
    pub fn scan_prefix<S: AvlNodeStore + ?Sized>(
        &self,
        store: &S,
        prefix: &[u8],
        visit: &mut dyn FnMut(&AvlNode) -> Result<(), AvlError>,
    ) -> Result<(), AvlError> {
        fn walk<S: AvlNodeStore + ?Sized>(
            store: &S,
            link: &Option<AvlLink>,
            prefix: &[u8],
            visit: &mut dyn FnMut(&AvlNode) -> Result<(), AvlError>,
        ) -> Result<(), AvlError> {
            let Some(link) = link else {
                return Ok(());
            };
            let node = fetch(store, link)?;
            let key = node.key.as_slice();
            // Left subtree holds keys < node.key: only worth visiting
            // if some prefixed key can be smaller.
            if key > prefix {
                walk(store, &node.left, prefix, visit)?;
            }
            if key.starts_with(prefix) {
                visit(&node)?;
            }
            // A key above `prefix` that does not start with it is above
            // the whole prefixed range; nothing to its right matches.
            if key <= prefix || key.starts_with(prefix) {
                walk(store, &node.right, prefix, visit)?;
            }
            Ok(())
        }
        walk(store, &self.root, prefix, visit)
    }

    /// Builds a membership proof for `key`.
    ///
    /// # Errors
    ///
    /// [`AvlError::CorruptNode`] if the key is absent (this tree only
    /// proves membership), any node on the path fails verification, or
    /// the path holds a pending link ([`AvlTree::commit`] first).
    pub fn prove<S: AvlNodeStore + ?Sized>(
        &self,
        store: &S,
        key: &[u8],
    ) -> Result<AvlProof, AvlError> {
        let committed = |link: &Option<AvlLink>| {
            link_parts(link).ok_or(AvlError::CorruptNode {
                detail: "pending link on a proof path",
            })
        };
        let mut path = Vec::new();
        let mut link = self.root.clone();
        while let Some(l) = link {
            let node = fetch(store, &l)?;
            match key.cmp(node.key.as_slice()) {
                Ordering::Equal => {
                    return Ok(AvlProof {
                        key: node.key.clone(),
                        value: node.value.clone(),
                        left: committed(&node.left)?,
                        right: committed(&node.right)?,
                        path,
                    });
                }
                Ordering::Less => {
                    let other = committed(&node.right)?;
                    path.push(AvlProofStep {
                        kv_hash: node.kv_hash(),
                        descend_left: true,
                        path_height: link_height(&node.left),
                        other_hash: other.0,
                        other_height: other.1,
                    });
                    link = node.left.clone();
                }
                Ordering::Greater => {
                    let other = committed(&node.left)?;
                    path.push(AvlProofStep {
                        kv_hash: node.kv_hash(),
                        descend_left: false,
                        path_height: link_height(&node.right),
                        other_hash: other.0,
                        other_height: other.1,
                    });
                    link = node.right.clone();
                }
            }
        }
        Err(AvlError::CorruptNode {
            detail: "key absent from tree",
        })
    }

    /// Verifies the *entire* tree: every node's hash and height against
    /// its parent link, BST key order, and the AVL balance invariant.
    /// Returns the number of entries.
    ///
    /// This is the reopen-time integrity pass: it costs one sequential
    /// read of the live node set and guarantees a bit flip anywhere in
    /// the index is caught before the first query is answered.
    ///
    /// # Errors
    ///
    /// [`AvlError::CorruptNode`] at the first violation.
    pub fn verify_walk<S: AvlNodeStore + ?Sized>(&self, store: &S) -> Result<u64, AvlError> {
        fn walk<S: AvlNodeStore + ?Sized>(
            store: &S,
            link: &AvlLink,
            lo: Option<&[u8]>,
            hi: Option<&[u8]>,
        ) -> Result<u64, AvlError> {
            let node = fetch(store, link)?;
            let key = node.key.as_slice();
            if lo.is_some_and(|lo| key <= lo) || hi.is_some_and(|hi| key >= hi) {
                return Err(AvlError::CorruptNode {
                    detail: "BST key order violated",
                });
            }
            if node.balance().abs() > 1 {
                return Err(AvlError::CorruptNode {
                    detail: "AVL balance invariant violated",
                });
            }
            let mut count = 1;
            if let Some(left) = &node.left {
                count += walk(store, left, lo, Some(key))?;
            }
            if let Some(right) = &node.right {
                count += walk(store, right, Some(key), hi)?;
            }
            Ok(count)
        }
        match &self.root {
            None => Ok(0),
            Some(root) => walk(store, root, None, None),
        }
    }
}

/// Puts a rewritten node in the write set and hands back the pending
/// link to it: nothing is hashed until [`AvlTree::commit`].
fn pending<S: AvlNodeStore + ?Sized>(store: &mut S, node: AvlNode) -> Result<AvlLink, AvlError> {
    let link = AvlLink {
        key: node.key.clone(),
        hash: None,
        height: node.height(),
        addr: None,
    };
    store.put_node(node)?;
    Ok(link)
}

fn insert_at<S: AvlNodeStore + ?Sized>(
    store: &mut S,
    link: Option<&AvlLink>,
    key: &[u8],
    value: &[u8],
) -> Result<AvlLink, AvlError> {
    let Some(link) = link else {
        return pending(store, AvlNode::leaf(key.to_vec(), value.to_vec()));
    };
    let mut node = (*fetch(store, link)?).clone();
    match key.cmp(node.key.as_slice()) {
        Ordering::Equal => {
            node.value = value.to_vec();
            node.invalidate();
            return pending(store, node);
        }
        Ordering::Less => {
            let child = insert_at(store, node.left.as_ref(), key, value)?;
            node.left = Some(child);
            node.invalidate_links();
        }
        Ordering::Greater => {
            let child = insert_at(store, node.right.as_ref(), key, value)?;
            node.right = Some(child);
            node.invalidate_links();
        }
    }
    let node = rebalance(store, node)?;
    pending(store, node)
}

fn remove_at<S: AvlNodeStore + ?Sized>(
    store: &mut S,
    link: Option<&AvlLink>,
    key: &[u8],
) -> Result<(Option<AvlLink>, bool), AvlError> {
    let Some(link) = link else {
        return Ok((None, false));
    };
    let mut node = (*fetch(store, link)?).clone();
    match key.cmp(node.key.as_slice()) {
        Ordering::Equal => {
            let replacement = match (node.left.take(), node.right.take()) {
                (None, None) => return Ok((None, true)),
                (Some(only), None) | (None, Some(only)) => return Ok((Some(only), true)),
                (Some(left), Some(right)) => {
                    // Two children: promote the in-order successor (the
                    // minimum of the right subtree) into this position,
                    // then rebalance as if its key had been removed.
                    let (successor, new_right) = take_min(store, &right)?;
                    let mut replacement =
                        AvlNode::leaf(successor.key.clone(), successor.value.clone());
                    replacement.left = Some(left);
                    replacement.right = new_right;
                    replacement
                }
            };
            let replacement = rebalance(store, replacement)?;
            Ok((Some(pending(store, replacement)?), true))
        }
        Ordering::Less => {
            let (child, removed) = remove_at(store, node.left.as_ref(), key)?;
            if !removed {
                return Ok((Some(link.clone()), false));
            }
            node.left = child;
            node.invalidate_links();
            let node = rebalance(store, node)?;
            Ok((Some(pending(store, node)?), true))
        }
        Ordering::Greater => {
            let (child, removed) = remove_at(store, node.right.as_ref(), key)?;
            if !removed {
                return Ok((Some(link.clone()), false));
            }
            node.right = child;
            node.invalidate_links();
            let node = rebalance(store, node)?;
            Ok((Some(pending(store, node)?), true))
        }
    }
}

/// Detaches the minimum node of the subtree at `link`, rebalancing the
/// unwind path; returns the detached node and the new subtree link.
fn take_min<S: AvlNodeStore + ?Sized>(
    store: &mut S,
    link: &AvlLink,
) -> Result<(Arc<AvlNode>, Option<AvlLink>), AvlError> {
    let fetched = fetch(store, link)?;
    let Some(left) = fetched.left.as_ref() else {
        return Ok((fetched.clone(), fetched.right.clone()));
    };
    let (min, new_left) = take_min(store, left)?;
    let mut node = (*fetched).clone();
    node.left = new_left;
    node.invalidate_links();
    let node = rebalance(store, node)?;
    Ok((min, Some(pending(store, node)?)))
}

/// Restores the AVL invariant at `node` after a child height changed,
/// storing every demoted node; the returned subtree root is *not* yet
/// stored (the caller stores it after linking).
fn rebalance<S: AvlNodeStore + ?Sized>(store: &mut S, node: AvlNode) -> Result<AvlNode, AvlError> {
    let bf = node.balance();
    if bf > 1 {
        let left_link = node
            .left
            .as_ref()
            .expect("left-heavy node has a left child");
        let mut left = (*fetch(store, left_link)?).clone();
        if left.balance() < 0 {
            let lr_link = left
                .right
                .as_ref()
                .expect("right-heavy child has a right child");
            let lr = (*fetch(store, lr_link)?).clone();
            left = rotate_left(store, left, lr)?;
        }
        rotate_right(store, node, left)
    } else if bf < -1 {
        let right_link = node
            .right
            .as_ref()
            .expect("right-heavy node has a right child");
        let mut right = (*fetch(store, right_link)?).clone();
        if right.balance() > 0 {
            let rl_link = right
                .left
                .as_ref()
                .expect("left-heavy child has a left child");
            let rl = (*fetch(store, rl_link)?).clone();
            right = rotate_right(store, right, rl)?;
        }
        rotate_left(store, node, right)
    } else {
        Ok(node)
    }
}

/// Right rotation: `x` (== `y`'s left child, already fetched) is
/// promoted above `y`. Stores the demoted `y`; returns the new subtree
/// root `x` unstored.
fn rotate_right<S: AvlNodeStore + ?Sized>(
    store: &mut S,
    mut y: AvlNode,
    mut x: AvlNode,
) -> Result<AvlNode, AvlError> {
    y.left = x.right.take();
    y.invalidate_links();
    x.right = Some(pending(store, y)?);
    x.invalidate_links();
    Ok(x)
}

/// Left rotation: `x` (== `y`'s right child, already fetched) is
/// promoted above `y`. Stores the demoted `y`; returns the new subtree
/// root `x` unstored.
fn rotate_left<S: AvlNodeStore + ?Sized>(
    store: &mut S,
    mut y: AvlNode,
    mut x: AvlNode,
) -> Result<AvlNode, AvlError> {
    y.right = x.left.take();
    y.invalidate_links();
    x.left = Some(pending(store, y)?);
    x.invalidate_links();
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    /// Inserts `keys` in order and commits once at the end.
    fn build(keys: impl IntoIterator<Item = u64>) -> (AvlTree, MemoryNodes) {
        let mut store = MemoryNodes::new();
        let mut tree = AvlTree::new();
        for i in keys {
            tree.insert(&mut store, &key(i), &(i * 10).to_le_bytes())
                .unwrap();
        }
        tree.commit(&mut store).unwrap();
        (tree, store)
    }

    /// Uncommitted nodes reachable from `link`, counted without
    /// `commit`: below a committed link everything is committed.
    fn pending_nodes(store: &MemoryNodes, link: Option<&AvlLink>) -> u64 {
        match link {
            Some(link) if link.hash.is_none() => {
                let node = store.get_node(link).unwrap().expect("in the write set");
                1 + pending_nodes(store, node.left.as_ref())
                    + pending_nodes(store, node.right.as_ref())
            }
            _ => 0,
        }
    }

    #[test]
    fn three_level_hashes_are_domain_separated() {
        // A (key, value) swap must change every level that sees both.
        let a = kv_hash(b"k", &value_hash(b"v"));
        let b = kv_hash(b"v", &value_hash(b"k"));
        assert_ne!(a, b);
        // value_hash is not plain H(value).
        assert_ne!(value_hash(b"v"), Hash256::hash(b"v"));
        // Child order matters in the node hash.
        let l = (Hash256::hash(b"l"), 1);
        let r = (Hash256::hash(b"r"), 1);
        assert_ne!(node_hash(&a, l, r), node_hash(&a, r, l));
        // Child heights are committed.
        assert_ne!(node_hash(&a, l, r), node_hash(&a, (l.0, 2), r));
    }

    #[test]
    fn insert_get_roundtrip_and_absence() {
        let (tree, store) = build([5, 3, 9, 1, 7]);
        for i in [5u64, 3, 9, 1, 7] {
            let node = tree.get(&store, &key(i)).unwrap().expect("present");
            assert_eq!(node.value, (i * 10).to_le_bytes());
        }
        assert!(tree.get(&store, &key(4)).unwrap().is_none());
        assert_eq!(tree.verify_walk(&store).unwrap(), 5);
    }

    #[test]
    fn stays_balanced_under_sequential_inserts() {
        // Sequential keys are the AVL worst case for a naive BST.
        let (tree, store) = build(0..512);
        assert_eq!(tree.verify_walk(&store).unwrap(), 512);
        // AVL height bound: 1.44 log2(n) + O(1); 512 keys => <= 13.
        assert!(tree.root().unwrap().height <= 13);
        // Path copying writes O(log n) nodes per insert.
        assert!(store.puts() < 512 * 16, "puts = {}", store.puts());
    }

    #[test]
    fn shape_is_a_function_of_the_insert_sequence() {
        let (a, _) = build([4, 2, 6, 1, 3, 5, 7]);
        let (b, _) = build([4, 2, 6, 1, 3, 5, 7]);
        assert_eq!(a.root(), b.root());
        // Same content, different order: equality of roots is NOT
        // guaranteed in general — determinism comes from replaying the
        // same sequence, which is how rebuild == incremental is pinned.
        let (c, _) = build([1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(
            a.verify_walk(&build([4, 2, 6, 1, 3, 5, 7]).1).unwrap(),
            c.verify_walk(&build([1, 2, 3, 4, 5, 6, 7]).1).unwrap()
        );
    }

    #[test]
    fn replacing_a_value_changes_the_root() {
        let (mut tree, mut store) = build([1, 2, 3]);
        let before = tree.root_hash();
        tree.insert(&mut store, &key(2), b"new value").unwrap();
        tree.commit(&mut store).unwrap();
        assert_ne!(tree.root_hash(), before);
        assert_eq!(
            tree.get(&store, &key(2)).unwrap().unwrap().value,
            b"new value"
        );
        assert_eq!(tree.verify_walk(&store).unwrap(), 3);
    }

    #[test]
    fn remove_deletes_and_keeps_balance() {
        let (mut tree, mut store) = build(0..256);
        // Delete every third key, checking the survivors after each.
        for i in (0..256u64).step_by(3) {
            assert!(tree.remove(&mut store, &key(i)).unwrap());
        }
        let expected = (0..256u64).filter(|i| i % 3 != 0).count() as u64;
        assert_eq!(tree.verify_walk(&store).unwrap(), expected);
        for i in 0..256u64 {
            let got = tree.get(&store, &key(i)).unwrap();
            if i % 3 == 0 {
                assert!(got.is_none(), "key {i} should be gone");
            } else {
                assert_eq!(got.expect("present").value, (i * 10).to_le_bytes());
            }
        }
    }

    #[test]
    fn remove_missing_key_is_a_noop() {
        let (mut tree, mut store) = build([5, 3, 9]);
        let before = tree.root_hash();
        let puts_before = store.puts();
        assert!(!tree.remove(&mut store, &key(4)).unwrap());
        assert_eq!(tree.root_hash(), before);
        assert_eq!(store.puts(), puts_before, "miss writes nothing");
        assert_eq!(tree.verify_walk(&store).unwrap(), 3);
    }

    #[test]
    fn remove_empties_to_none_and_reinserts() {
        let (mut tree, mut store) = build([2, 1, 3]);
        for i in [1u64, 3, 2] {
            assert!(tree.remove(&mut store, &key(i)).unwrap());
        }
        assert!(tree.is_empty());
        assert_eq!(tree.commit(&mut store).unwrap(), 0);
        assert_eq!(tree.root_hash(), Hash256::ZERO);
        // The emptied tree accepts inserts again and verifies clean.
        tree.insert(&mut store, &key(7), b"back").unwrap();
        assert_eq!(tree.verify_walk(&store).unwrap(), 1);
        assert_eq!(tree.get(&store, &key(7)).unwrap().unwrap().value, b"back");
    }

    #[test]
    fn remove_two_children_promotes_the_successor() {
        // Root with both subtrees populated: deleting it must splice
        // in the in-order successor and keep BST order + balance.
        let (mut tree, mut store) = build([8, 4, 12, 2, 6, 10, 14, 9, 11]);
        let root_key = tree.root().unwrap().key.clone();
        assert!(tree.remove(&mut store, &root_key).unwrap());
        assert_eq!(tree.verify_walk(&store).unwrap(), 8);
        assert!(tree.get(&store, &root_key).unwrap().is_none());
        // Deletion writes O(log n) nodes, like insertion.
        let (mut tree, mut store) = build(0..512);
        let before = store.puts();
        assert!(tree.remove(&mut store, &key(255)).unwrap());
        assert!(
            store.puts() - before <= 16,
            "puts = {}",
            store.puts() - before
        );
    }

    #[test]
    fn scan_prefix_is_ordered_and_pruned() {
        let mut store = MemoryNodes::new();
        let mut tree = AvlTree::new();
        for i in 0..40u64 {
            let mut k = vec![(i % 4) as u8];
            k.extend_from_slice(&i.to_be_bytes());
            tree.insert(&mut store, &k, &[1]).unwrap();
        }
        let mut seen = Vec::new();
        tree.scan_prefix(&store, &[2], &mut |node| {
            seen.push(node.key.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 10);
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "in-order scan yields sorted keys");
        assert!(seen.iter().all(|k| k[0] == 2));
        // Empty prefix visits everything.
        let mut all = 0;
        tree.scan_prefix(&store, &[], &mut |_| {
            all += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(all, 40);
    }

    #[test]
    fn proofs_verify_and_tampering_fails() {
        let (tree, store) = build(0..64);
        let root = tree.root_hash();
        for i in [0u64, 13, 31, 63] {
            let proof = tree.prove(&store, &key(i)).unwrap();
            assert!(proof.verify(root, &key(i), &(i * 10).to_le_bytes()));
            // Wrong value, wrong key, wrong root: all rejected.
            assert!(!proof.verify(root, &key(i), b"forged"));
            assert!(!proof.verify(root, &key(i + 1), &(i * 10).to_le_bytes()));
            assert!(!proof.verify(
                Hash256::hash(b"other root"),
                &key(i),
                &(i * 10).to_le_bytes()
            ));
        }
        assert!(matches!(
            tree.prove(&store, &key(1000)),
            Err(AvlError::CorruptNode { .. })
        ));
    }

    #[test]
    fn corrupted_nodes_are_detected_not_served() {
        let (tree, mut store) = build(0..32);
        // Flip a value byte in some node: every read path that touches
        // it must error, none may return the tampered value.
        assert!(store.tamper(&key(11), |node| node.value[0] ^= 0xFF));
        assert!(matches!(
            tree.get(&store, &key(11)),
            Err(AvlError::CorruptNode { .. })
        ));
        assert!(matches!(
            tree.verify_walk(&store),
            Err(AvlError::CorruptNode { .. })
        ));
        // A height lie is equally fatal, even with a matching hash
        // recomputed over the lied-about children.
        let (tree, mut store) = build(0..32);
        assert!(store.tamper(&key(11), |node| {
            if let Some(l) = node.left.as_mut() {
                l.height += 1;
            } else {
                node.left = Some(AvlLink {
                    key: key(10),
                    hash: Some(Hash256::ZERO),
                    height: 9,
                    addr: None,
                });
            }
        }));
        assert!(tree.verify_walk(&store).is_err());
    }

    #[test]
    fn missing_node_is_corruption() {
        let (tree, store) = build(0..8);
        let mut broken = MemoryNodes::new();
        // Copy all but the root's target into a fresh store.
        for (k, node) in &store.nodes {
            if *k != key(3) {
                broken.put_node((**node).clone()).unwrap();
            }
        }
        assert!(matches!(
            tree.verify_walk(&broken),
            Err(AvlError::CorruptNode { .. })
        ));
    }

    #[test]
    fn node_codec_roundtrip() {
        let (tree, store) = build([8, 4, 12, 2, 6, 10, 14]);
        let root = fetch(&store, tree.root().unwrap()).unwrap();
        let bytes = root.encode();
        assert_eq!(bytes.len(), root.encoded_len());
        let decoded: AvlNode = lvq_codec::decode_exact(&bytes).unwrap();
        assert_eq!(decoded, *root);
        assert_eq!(decoded.node_hash(), Some(tree.root_hash()));
    }

    /// `store` as a reader that memoized nothing finds it: every
    /// committed node re-decoded from its bytes. (Leftovers of removed
    /// keys may still hold pending links; nothing links to them.)
    fn cold(store: &MemoryNodes) -> MemoryNodes {
        let mut cold = MemoryNodes::new();
        for node in store.nodes.values().filter(|n| n.node_hash().is_some()) {
            let decoded: AvlNode = lvq_codec::decode_exact(&node.encode()).unwrap();
            cold.put_node(decoded).unwrap();
        }
        cold
    }

    #[test]
    fn commit_hashes_each_rewritten_node_exactly_once() {
        // The same edits, committed once at the end (`lazy`) and after
        // every single operation (`eager`, what hashing at insert did).
        let mut lazy = (AvlTree::new(), MemoryNodes::new());
        let mut eager = (AvlTree::new(), MemoryNodes::new());
        let mut eager_hashed = 0;
        let mut edit = |op: &dyn Fn(&mut AvlTree, &mut MemoryNodes)| {
            op(&mut lazy.0, &mut lazy.1);
            op(&mut eager.0, &mut eager.1);
            eager_hashed += eager.0.commit(&mut eager.1).unwrap();
            // Edits over committed nodes must drop every memo they
            // outdate: the hashes hold for a cold reader at each step.
            eager.0.verify_walk(&cold(&eager.1)).unwrap();
        };
        for i in (0..200u64).map(|i| i * 37 % 211) {
            edit(&|tree, store| tree.insert(store, &key(i), &i.to_le_bytes()).unwrap());
        }
        for i in (0..120u64).map(|i| i * 53 % 211) {
            // Some of these keys were never inserted: misses count too.
            edit(&|tree, store| {
                tree.remove(store, &key(i)).unwrap();
            });
        }
        let (mut tree, mut store) = lazy;

        let expected = pending_nodes(&store, tree.root());
        let puts_before = store.puts();
        assert_eq!(tree.commit(&mut store).unwrap(), expected);
        assert_eq!(store.puts() - puts_before, expected, "one put per hash");
        assert_eq!(pending_nodes(&store, tree.root()), 0);
        // Every surviving key was rewritten, none more than once now.
        assert_eq!(expected, tree.verify_walk(&cold(&store)).unwrap());
        assert!(eager_hashed > 8 * expected, "eager = {eager_hashed}");

        // Nothing left to hash, nothing written.
        assert_eq!(tree.commit(&mut store).unwrap(), 0);
        assert_eq!(store.puts() - puts_before, expected);

        // Deferring changed neither the shape nor a single hash.
        assert_eq!(tree.root(), eager.0.root());
        assert_eq!(tree.root_hash(), eager.0.root_hash());

        // After a commit only the next edit's path is pending again.
        tree.insert(&mut store, &key(1000), b"one more").unwrap();
        let path = pending_nodes(&store, tree.root());
        assert!((1..=12).contains(&path), "path = {path}");
        assert_eq!(tree.commit(&mut store).unwrap(), path);
    }

    #[test]
    fn pending_links_read_back_unhashed_but_prove_nothing() {
        let (mut tree, mut store) = build(0..32);
        tree.insert(&mut store, &key(40), b"fresh").unwrap();
        assert!(tree.root().unwrap().hash.is_none());
        // Reads and the structural walk follow pending links…
        assert_eq!(tree.get(&store, &key(40)).unwrap().unwrap().value, b"fresh");
        assert_eq!(tree.verify_walk(&store).unwrap(), 33);
        // …but nothing that needs a hash works before the commit.
        assert!(matches!(
            tree.prove(&store, &key(40)),
            Err(AvlError::CorruptNode { .. })
        ));
        tree.commit(&mut store).unwrap();
        let proof = tree.prove(&store, &key(40)).unwrap();
        assert!(proof.verify(tree.root_hash(), &key(40), b"fresh"));
    }

    #[test]
    #[should_panic(expected = "pending link has no encoding")]
    fn pending_links_cannot_be_encoded() {
        let mut store = MemoryNodes::new();
        let mut tree = AvlTree::new();
        tree.insert(&mut store, &key(1), b"v").unwrap();
        tree.root().unwrap().encode();
    }

    #[test]
    fn pending_state_behind_a_committed_link_is_corruption() {
        // A committed link vouches for a fully hashed subtree: a node
        // below it that claims pending children is a forgery, however
        // the rest of it looks.
        let (tree, mut store) = build(0..32);
        let root_key = tree.root().unwrap().key.clone();
        assert!(store.tamper(&root_key, |node| {
            node.left.as_mut().unwrap().hash = None;
        }));
        assert!(matches!(
            tree.verify_walk(&store),
            Err(AvlError::CorruptNode { .. })
        ));
        // And a pending link may never point into committed storage,
        // where nothing would check what it loads.
        let (tree, store) = build(0..4);
        let mut forged = tree.root().unwrap().clone();
        forged.hash = None;
        forged.addr = Some(NodeAddr {
            segment: 0,
            offset: 12,
            len: 64,
        });
        assert!(matches!(
            fetch(&store, &forged),
            Err(AvlError::CorruptNode { .. })
        ));
    }
}
