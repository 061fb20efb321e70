//! # indoor-persist
//!
//! Persistence layer for the IKRQ reproduction: portable documents for
//! venues (indoor space + keyword directory), query workloads and search
//! results, in two on-disk shapes (full reference: `docs/PERSIST.md`):
//!
//! * **JSON** ([`json`]) — the human-readable, long-lived interchange
//!   format, used by the `ikrq` command-line tool and the benchmark
//!   harness. Loading a JSON venue rebuilds the model with
//!   [`VenueDocument::build`].
//! * **binary** ([`binary`] + [`columnar`]) — a checksummed *model section*
//!   holding the venue in exactly the flat shape the in-memory model stores
//!   it (dense partition/door columns, CSR adjacency, the derived door
//!   graph, the keyword string arena and sorted id maps), optionally
//!   followed by a pre-built index section ([`index_section`]).
//!   [`binary::load_venue_model`] adopts those columns wholesale instead of
//!   replaying the builders, which is what makes venue-scale cold start
//!   cheap. Binary files are regenerated from their source, not migrated.
//!
//! The central type is [`VenueDocument`]: a flat, string-based description of
//! a venue that can be captured from an in-memory model with
//! [`VenueDocument::from_venue`] and rebuilt with [`VenueDocument::build`].
//! Keywords are stored as strings (not interned ids) and topology as explicit
//! directional connection records, so documents are portable across processes
//! and may be edited by hand. A binary file's model section is not advisory:
//! any defect in it fails the load with a [`PersistError`]. Only the index
//! section is advisory — a defect there degrades to an index rebuild.
//!
//! ```
//! use indoor_persist::{VenueDocument, json};
//! use indoor_data::paper_example_venue;
//!
//! let example = paper_example_venue();
//! let doc = VenueDocument::from_venue(
//!     &example.venue.space,
//!     &example.venue.directory,
//!     10.0,
//!     Some("fig1".into()),
//! );
//! let text = json::to_json_string(&doc).unwrap();
//! let back: VenueDocument = json::from_json_str(&text).unwrap();
//! let (space, directory) = back.build().unwrap();
//! assert_eq!(space.num_partitions(), example.venue.space.num_partitions());
//! assert!(directory.lookup("starbucks").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod columnar;
pub mod document;
pub mod error;
pub mod index_section;
pub mod json;
pub mod workload;

pub use binary::{
    encode_venue_columnar, load_venue_model, load_venue_model_file, save_venue_columnar,
    FILE_VERSION, VENUE_MAGIC,
};
pub use columnar::{DocumentLoadStats, LoadedVenue, COLUMNAR_FORMAT_VERSION, COLUMNAR_MAGIC};
pub use document::{
    ConnectionRecord, DoorRecord, FloorRecord, IntraOverrideRecord, KeywordRecord,
    LoopOverrideRecord, PartitionRecord, VenueDocument, FORMAT_VERSION,
};
pub use error::PersistError;
pub use index_section::{IndexSection, PrebuiltIndex, INDEX_FORMAT_VERSION, INDEX_MAGIC};
pub use json::{load_venue_json, save_venue_json};
pub use workload::{QueryRecord, ResultDocument, ResultRecord, WorkloadDocument};

/// Result alias for fallible persistence operations.
pub type Result<T> = std::result::Result<T, PersistError>;

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::{PersistError, QueryRecord, ResultDocument, VenueDocument, WorkloadDocument};
}
