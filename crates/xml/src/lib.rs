//! # xpath-xml — XML document model substrate
//!
//! The XPath 1.0 data model of Gottlob, Koch & Pichler, *Efficient Algorithms
//! for Processing XPath Queries* (VLDB 2002), §3–§4:
//!
//! * an arena-backed, immutable document tree whose node ids **are** document
//!   order ([`NodeId`], [`Document`]);
//! * the seven node types ([`NodeKind`]) including attribute and namespace
//!   nodes as filtered children of the abstract tree;
//! * the primitive relations `firstchild` / `nextsibling` and their inverses
//!   from Table I, on which the axis engine (`xpath-axes`) builds;
//! * string values (`strval`), ID/IDREF dereferencing (`deref_ids`) and the
//!   linear-size `ref` relation of Theorem 10.7;
//! * a from-scratch XML parser and a [`DocumentBuilder`], including a DTD
//!   internal-subset parser ([`dtd`]) that drives ID-ness per §4 and
//!   optional namespace-node synthesis ([`ParseOptions`]);
//! * the engine-wide [`NodeSet`] currency ([`nodeset`]): an adaptive
//!   hybrid of a dense bitset over preorder ids and a sorted vector,
//!   always iterated in document order — see that module's docs for the
//!   invariants;
//! * the tree as flat `u32` arrays over preorder ids (parent, previous
//!   sibling, subtree end; first child and next sibling are derived from
//!   the nested preorder intervals) plus an attribute/namespace bitset,
//!   read directly by the set-at-a-time axis kernels of `xpath-axes`
//!   ([`Document::parent_ids`] and its siblings);
//! * a serializer ([`Document::serialize`]) and document statistics
//!   ([`stats`]);
//! * generators for every document family used in the paper's experiments
//!   ([`generate`]);
//! * the word-sweep kernels under every set operation ([`simd`]): scalar
//!   reference loops, and AVX2 vector sweeps picked at runtime when the
//!   CPU has them;
//! * thread-local buffer recycling ([`pool`]) behind [`NodeSet`]'s
//!   `Clone`/`Drop`, giving repeated evaluation an allocation-free steady
//!   state;
//! * zero-copy document storage: every arena is an array handle over
//!   either heap memory or an mmap'd byte region (`bytes`, internal),
//!   and the on-disk snapshot format ([`snap`]) reloads a parsed
//!   document — link arrays, id/ref tables and all — with one `mmap(2)`
//!   and zero parse work;
//! * unique, self-removing scratch paths for tests and tools ([`temp`]).

// `simd`, `bytes` and `signal` carry the workspace's three scoped
// `unsafe` exemptions (the workspace lints pin `unsafe_code = deny`; a
// crate-level `forbid` would make those module-level allows impossible).
// Each module's docs open with the safety argument for its exemption.
#![warn(missing_docs)]

mod builder;
mod bytes;
mod document;
pub mod dtd;
mod error;
pub mod generate;
mod node;
pub mod nodeset;
mod parser;
pub mod pool;
pub mod rng;
pub mod signal;
pub mod simd;
pub mod snap;
pub mod stats;
pub mod temp;

pub use builder::DocumentBuilder;
pub use document::{Children, Document, IdPolicy, NameId, Refs, NONE};
pub use error::ParseError;
pub use node::{NodeId, NodeKind};
pub use nodeset::NodeSet;
pub use parser::ParseOptions;
