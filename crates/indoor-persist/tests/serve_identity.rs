//! Save → load → serve byte-identity, property-tested.
//!
//! A venue saved as a binary file with a pre-built index section, loaded
//! back, and served through the adopted model and index must answer every
//! Table III algorithm variant byte-for-byte like a freshly built scan
//! engine — across arbitrary generated venues and query workloads. Two
//! companion properties flip arbitrary bytes of the file: inside the model
//! section the load must fail with a structured error, inside the index
//! section it must degrade to an index rebuild; neither may panic.

use ikrq_core::{
    ExecOptions, IkrqEngine, IkrqQuery, IkrqService, IndexMode, SearchRequest, VariantConfig,
};
use indoor_data::{mega_venue, MegaVenueConfig, QueryGenerator, QueryInstance, WorkloadConfig};
use indoor_keywords::QueryKeywords;
use indoor_persist::{binary, IndexSection, PersistError, VenueDocument};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        qw_len: 3,
        beta: 0.5,
        s2t: 60.0,
        eta: 2.0,
        k: 3,
        alpha: 0.5,
        tau: 0.3,
    }
}

fn to_query(instance: &QueryInstance) -> IkrqQuery {
    IkrqQuery::new(
        instance.start,
        instance.terminal,
        instance.delta,
        QueryKeywords::new(instance.keywords.iter().cloned())
            .expect("generated instances always carry keywords"),
        instance.k,
    )
    .with_alpha(instance.alpha)
    .with_tau(instance.tau)
}

fn single_venue_service(engine: IkrqEngine) -> IkrqService {
    let service = IkrqService::new();
    service
        .register_engine("prop", Arc::new(engine))
        .expect("fresh service accepts the venue");
    service
}

/// A generated venue's document and its binary file, saved pre-indexed
/// from the document's own rebuild (as `ikrq generate --save-indexed`
/// does), plus the rebuilt engine it was written from.
fn save_preindexed(size: usize, seed: u64) -> (VenueDocument, Vec<u8>, IkrqEngine) {
    let venue = mega_venue(&MegaVenueConfig::sized(size, seed)).expect("mega venues build");
    let doc = VenueDocument::from_venue(&venue.space, &venue.directory, 16.0, Some("prop".into()));
    let (space, directory) = doc.build().expect("generated documents round-trip");
    let fresh = IkrqEngine::new(space, directory);
    let index = fresh.index().expect("default engines are accelerated");
    let payload =
        binary::encode_venue_columnar(&doc, fresh.space(), fresh.directory(), Some(index))
            .expect("generated documents encode")
            .to_vec();
    (doc, payload, fresh)
}

/// Where the model section of a binary file ends: after the 10-byte file
/// header and the framed section (14-byte header, body, 8-byte checksum;
/// the body length sits at bytes 10..14 of the section).
fn model_section_end(payload: &[u8]) -> usize {
    let body_len = u32::from_le_bytes(payload[20..24].try_into().unwrap()) as usize;
    10 + 14 + body_len + 8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A binary file adopted wholesale, with its persisted index, serves
    /// byte-for-byte like the in-memory scan engine under every Table III
    /// variant.
    #[test]
    fn columnar_saved_venues_serve_byte_identically(
        seed in 0u64..1 << 16,
        size in 60usize..160,
    ) {
        let (doc, payload, _) = save_preindexed(size, seed);
        let loaded = binary::load_venue_model(&payload).expect("binary venues load");
        prop_assert!(loaded.stats.adopted_columnar, "binary files adopt their columns");
        prop_assert_eq!(loaded.stats.format_version, binary::FILE_VERSION);
        let IndexSection::Present(prebuilt) = loaded.index else {
            panic!("binary venue carries a usable index section");
        };
        let index = prebuilt
            .into_index(&loaded.directory)
            .expect("persisted index binds to the adopted directory");
        let engine = IkrqEngine::with_prebuilt_index(loaded.space, loaded.directory, index);
        prop_assert!(engine.index().is_some_and(|i| i.loaded_from_disk()));
        let loaded_service = single_venue_service(engine);

        let (scan_space, scan_directory) = doc.build().expect("generated documents round-trip");
        let scan_service = single_venue_service(IkrqEngine::with_index_mode(
            scan_space,
            scan_directory,
            IndexMode::Scan,
        ));

        let venue = mega_venue(&MegaVenueConfig::sized(size, seed)).expect("mega venues build");
        let generator = QueryGenerator::new(&venue);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc01a);
        let instances = generator.generate_batch(&workload(), 2, &mut rng);
        if instances.is_empty() {
            // Tiny venues occasionally yield no satisfiable instance; the
            // load assertions above still ran.
            return Ok(());
        }

        for variant in VariantConfig::all_variants() {
            for instance in &instances {
                let request = SearchRequest {
                    venue: "prop".to_string(),
                    query: to_query(instance),
                    options: ExecOptions::with_variant(variant),
                };
                let loaded = loaded_service.search(&request).expect("loaded query succeeds");
                let scan = scan_service.search(&request).expect("scan query succeeds");
                prop_assert_eq!(
                    loaded.deterministic_json(),
                    scan.deterministic_json(),
                    "variant {} diverged between the binary-loaded and scan engines",
                    variant.label()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-byte corruption of a binary file's model section —
    /// header, length, body or checksum — fails the load with a structured
    /// error: never a panic, never a silently adopted model.
    #[test]
    fn corrupted_model_sections_fail_with_a_structured_error(
        seed in 0u64..1 << 16,
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let (_, payload, _) = save_preindexed(80, seed);
        let (section_start, section_end) = (10, model_section_end(&payload));
        prop_assert!(section_end < payload.len(), "payload carries an index section");

        let span = section_end - section_start;
        let offset = section_start + ((span as f64 * offset_frac) as usize).min(span - 1);
        let mut corrupt = payload.clone();
        corrupt[offset] ^= flip;

        match binary::load_venue_model(&corrupt) {
            Ok(_) => prop_assert!(false, "flip at {offset} still loaded"),
            Err(error) => {
                prop_assert!(
                    matches!(error, PersistError::Binary(_) | PersistError::InvalidDocument(_)),
                    "flip at {offset}: unexpected error kind {error:?}"
                );
                prop_assert!(!error.to_string().is_empty());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-byte corruption of the index section leaves the model
    /// loadable: the section either still binds (flip landed outside the
    /// covered bytes — impossible past the magic, but the property does not
    /// assume it) or degrades to a rebuild, never a hard failure.
    #[test]
    fn corrupted_index_sections_degrade_to_rebuild(
        seed in 0u64..1 << 16,
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let (_, payload, fresh) = save_preindexed(80, seed);
        let section_start = model_section_end(&payload);
        prop_assert!(section_start < payload.len(), "payload carries a section");

        let span = payload.len() - section_start;
        let offset = section_start + ((span as f64 * offset_frac) as usize).min(span - 1);
        let mut corrupt = payload.clone();
        corrupt[offset] ^= flip;

        let loaded = binary::load_venue_model(&corrupt)
            .expect("the model loads whatever happened to the index section");
        prop_assert_eq!(
            loaded.directory.fingerprint(),
            fresh.directory().fingerprint(),
            "keyword directory survives index corruption"
        );
        prop_assert_eq!(loaded.space.num_doors(), fresh.space().num_doors());
        match loaded.index {
            IndexSection::Unusable(reason) => prop_assert!(!reason.is_empty()),
            IndexSection::Present(prebuilt) => {
                // A surviving checksum means the flip must still decode into
                // a structurally sound index or be rejected at binding time;
                // either way the loader keeps going.
                let _ = prebuilt.into_index(&loaded.directory);
            }
            IndexSection::Absent => prop_assert!(false, "section bytes cannot vanish"),
        }
    }
}
