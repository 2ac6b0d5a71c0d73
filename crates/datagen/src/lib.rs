//! # precis-datagen
//!
//! Datasets for the Précis reproduction:
//!
//! * [`movies`] — the paper's movies schema (Figure 1), its weighted schema
//!   graph, the hand-crafted Woody Allen instance behind the running
//!   example, and the NLG vocabulary that reproduces the §5.3 narrative;
//! * [`synthetic`] — a seeded, scalable generator of IMDB-like movie data
//!   (the paper evaluated on an IMDB dump of 34k+ films, which we simulate);
//! * [`schemas`] — synthetic database schemas (chains, stars, trees) for
//!   stress-testing the Result Schema Generator at large degrees;
//! * [`weights`] — seeded random weight sets over any schema graph (the
//!   paper's "20 randomly generated sets of weights").

pub mod movies;
pub mod schemas;
pub mod synthetic;
pub mod university;
pub mod weights;
mod zipf;

pub use movies::{movies_graph, movies_schema, movies_vocabulary, woody_allen_instance};
pub use schemas::{chain_db, chain_db_fanout, chain_schema, star_schema, tree_schema};
pub use synthetic::{MoviesConfig, MoviesGenerator};
pub use university::{
    university_graph, university_instance, university_schema, university_vocabulary,
};
pub use weights::{random_weight_graph, random_weight_graphs};
pub use zipf::Zipf;
