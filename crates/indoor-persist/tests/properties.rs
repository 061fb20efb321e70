//! Property-based tests of the persistence layer: arbitrary structurally
//! valid venue documents survive the JSON round trip unchanged, generated
//! venues survive the binary round trip as the same model, and the binary
//! loader never panics on truncated or corrupted files — a defect anywhere
//! before the index section is always an error.

use indoor_data::{mega_venue, MegaVenueConfig};
use indoor_index::VenueIndex;
use indoor_persist::{
    binary, json, ConnectionRecord, DoorRecord, FloorRecord, IntraOverrideRecord, KeywordRecord,
    LoopOverrideRecord, PartitionRecord, VenueDocument, FORMAT_VERSION,
};
use proptest::prelude::*;

const KINDS: [&str; 4] = ["room", "hallway", "staircase", "elevator"];
const DOOR_KINDS: [&str; 3] = ["normal", "stair", "elevator"];

/// A generator of structurally valid venue documents: dense partition/door
/// identifiers, all references in range, at least one direction per
/// connection. Geometric plausibility (non-overlapping rooms etc.) is *not*
/// required for the serialisation round trip, so footprints are free.
fn arb_document() -> impl Strategy<Value = VenueDocument> {
    let num_partitions = 1usize..8;
    let num_doors = 1usize..10;
    (num_partitions, num_doors).prop_flat_map(|(np, nd)| {
        let partitions = proptest::collection::vec(
            (
                0i32..3,
                0usize..KINDS.len(),
                (0.0f64..100.0, 0.0f64..100.0, 1.0f64..50.0, 1.0f64..50.0),
                proptest::option::of("[a-z]{1,8}"),
            ),
            np..=np,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (floor, kind, (x, y, w, h), name))| PartitionRecord {
                    id: i as u32,
                    floor,
                    kind: KINDS[kind].to_string(),
                    footprint: [x, y, x + w, y + h],
                    name,
                })
                .collect::<Vec<_>>()
        });

        let doors = proptest::collection::vec(
            (
                (0.0f64..150.0, 0.0f64..150.0),
                0i32..3,
                0usize..DOOR_KINDS.len(),
            ),
            nd..=nd,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, ((x, y), floor, kind))| DoorRecord {
                    id: i as u32,
                    position: [x, y],
                    floor,
                    kind: DOOR_KINDS[kind].to_string(),
                })
                .collect::<Vec<_>>()
        });

        let connections = proptest::collection::vec((0..nd as u32, 0..np as u32, 0u8..3), 1..20)
            .prop_map(|rows| {
                rows.into_iter()
                    .map(|(door, partition, dir)| ConnectionRecord {
                        door,
                        partition,
                        enterable: dir != 1,
                        leavable: dir != 0,
                    })
                    .collect::<Vec<_>>()
            });

        let intra = proptest::collection::vec(
            (0..np as u32, 0..nd as u32, 0..nd as u32, 0.1f64..500.0),
            0..5,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(
                    |(partition, from_door, to_door, distance)| IntraOverrideRecord {
                        partition,
                        from_door,
                        to_door,
                        distance,
                    },
                )
                .collect::<Vec<_>>()
        });

        let loops = proptest::collection::vec((0..np as u32, 0..nd as u32, 0.1f64..200.0), 0..5)
            .prop_map(|rows| {
                rows.into_iter()
                    .map(|(partition, door, distance)| LoopOverrideRecord {
                        partition,
                        door,
                        distance,
                    })
                    .collect::<Vec<_>>()
            });

        let keywords = proptest::collection::vec(
            (
                "[a-z]{2,10}",
                proptest::collection::vec(0..np as u32, 0..3),
                proptest::collection::vec("[a-z]{2,10}", 0..6),
            ),
            0..6,
        )
        .prop_map(|rows| {
            // Deduplicate i-words: the document allows repeated i-word strings
            // structurally but the directory rebuild treats them as one word;
            // keep the generator canonical.
            let mut seen = std::collections::BTreeSet::new();
            rows.into_iter()
                .filter_map(|(iword, partitions, twords)| {
                    if !seen.insert(iword.clone()) {
                        return None;
                    }
                    Some(KeywordRecord {
                        iword,
                        partitions,
                        twords,
                    })
                })
                .collect::<Vec<_>>()
        });

        let floors = proptest::collection::vec(
            (
                0i32..3,
                (0.0f64..10.0, 0.0f64..10.0, 50.0f64..200.0, 50.0f64..200.0),
            ),
            0..3,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(floor, (x, y, w, h))| FloorRecord {
                    floor,
                    bounds: [x, y, x + w, y + h],
                })
                .collect::<Vec<_>>()
        });

        (
            partitions,
            doors,
            connections,
            intra,
            loops,
            keywords,
            floors,
            proptest::option::of("[a-z ]{1,16}"),
            5.0f64..50.0,
        )
            .prop_map(
                |(
                    partitions,
                    doors,
                    connections,
                    intra_overrides,
                    loop_overrides,
                    keywords,
                    floors,
                    name,
                    grid_cell,
                )| VenueDocument {
                    format_version: FORMAT_VERSION,
                    name,
                    grid_cell,
                    floors,
                    partitions,
                    doors,
                    connections,
                    intra_overrides,
                    loop_overrides,
                    keywords,
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_round_trip_is_the_identity(doc in arb_document()) {
        prop_assert!(doc.validate().is_ok());
        let text = json::to_json_string(&doc).unwrap();
        let back: VenueDocument = json::from_json_str(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn binary_round_trip_is_the_identity(
        seed in 0u64..1 << 16,
        size in 60usize..120,
        with_index in 0u8..2,
    ) {
        let (doc, payload, _) = binary_file(seed, size, with_index == 1);
        let loaded = binary::load_venue_model(&payload).unwrap();
        prop_assert!(loaded.stats.adopted_columnar);
        prop_assert_eq!(&loaded.name, &doc.name);
        let (space, directory) = doc.build().unwrap();
        prop_assert_eq!(
            VenueDocument::from_venue(&loaded.space, &loaded.directory, doc.grid_cell, loaded.name.clone()),
            VenueDocument::from_venue(&space, &directory, doc.grid_cell, doc.name.clone())
        );
    }

    #[test]
    fn binary_decoder_never_panics_on_truncated_payloads(
        seed in 0u64..1 << 16,
        cut_fraction in 0.0f64..1.0,
    ) {
        let (_, payload, model_end) = binary_file(seed, 60, true);
        let cut = ((payload.len() as f64) * cut_fraction) as usize;
        match binary::load_venue_model(&payload[..cut]) {
            // A cut inside the index section costs only the index.
            Ok(loaded) => {
                prop_assert!(cut >= model_end, "cut at {cut} loaded a partial model");
                prop_assert!(cut == model_end || matches!(loaded.index, indoor_persist::IndexSection::Unusable(_)));
            }
            Err(_) => prop_assert!(cut < model_end, "cut at {cut} lost the intact model"),
        }
    }

    #[test]
    fn binary_decoder_never_panics_on_bit_flips(
        seed in 0u64..1 << 16,
        flip_at in 0usize..1 << 20,
        flip_mask in 1u8..=255,
    ) {
        let (_, payload, model_end) = binary_file(seed, 60, true);
        let mut corrupted = payload.clone();
        let idx = flip_at % corrupted.len();
        corrupted[idx] ^= flip_mask;
        // Header and model-section bytes are all covered by the magic, the
        // version word or the section checksum; index bytes are advisory.
        let loaded = binary::load_venue_model(&corrupted);
        prop_assert_eq!(loaded.is_err(), idx < model_end, "flip at {idx}");
    }
}

/// A generated venue's document, its binary file (with or without an index
/// section) and the offset where the model section ends.
fn binary_file(seed: u64, size: usize, with_index: bool) -> (VenueDocument, Vec<u8>, usize) {
    let venue = mega_venue(&MegaVenueConfig::sized(size, seed)).unwrap();
    let doc = VenueDocument::from_venue(&venue.space, &venue.directory, 16.0, Some("prop".into()));
    let (space, directory) = doc.build().unwrap();
    let model_end = binary::encode_venue_columnar(&doc, &space, &directory, None)
        .unwrap()
        .len();
    let index = with_index.then(|| VenueIndex::build(&space, &directory));
    let payload = binary::encode_venue_columnar(&doc, &space, &directory, index.as_ref())
        .unwrap()
        .to_vec();
    (doc, payload, model_end)
}
