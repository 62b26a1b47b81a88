//! # magic-workloads
//!
//! Synthetic workload generators for the *Power of Magic* experiments: the
//! canonical deductive-database benchmark data sets used throughout the
//! magic-sets literature (parent chains, trees and random DAGs for
//! `ancestor`; layered `up`/`flat`/`down` structures for `same-generation`;
//! ground lists for `reverse`), the cyclic variants used by the safety
//! experiments, and the Appendix's four benchmark programs ready-parsed.
//! The [`chaos`] module extends the same seeded-and-reproducible
//! discipline to fault schedules for the serving stack's
//! fault-injection seam.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ancestor;
pub mod chaos;
pub mod lists;
pub mod programs;
pub mod rng;
pub mod same_generation;
pub mod stratified;
pub mod updates;

pub use ancestor::node;
pub use ancestor::{binary_tree, chain, cycle, random_dag};
pub use chaos::{chaos_fault_spec, chaos_scenarios, ChaosScenario};
pub use lists::{list_term, list_value, reverse_database};
pub use rng::SplitMix64;
pub use same_generation::grid_node;
pub use same_generation::{nested_sg_extras, same_generation_grid, SgConfig};
pub use stratified::{
    bill_of_materials, bom_database, bom_oracle, game_graph, hop_graph, shortest_oracle,
    shortest_paths, unstratifiable_win_lose, win_lose, win_lose_oracle,
};
pub use updates::{ancestor_update_stream, same_generation_update_stream, UpdateOp};
