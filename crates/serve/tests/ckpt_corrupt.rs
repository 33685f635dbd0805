//! Corrupt-checkpoint fuzz: the loader's robustness contract is that a
//! malformed file of **any** shape comes back as a structured
//! [`CkptError`] — never a panic, never a half-imported manager.
//!
//! The sweep starts from one genuine checkpoint produced by a real
//! interrupted run, then attacks it: truncation at every prefix length,
//! a bit flip at every byte, a bumped (re-checksummed) version, foreign
//! magic, checksum-valid trailing garbage, the retired zonotope state
//! tag, a state tag of another engine, and a context mismatch (loading
//! into a manager of the wrong width).

use std::cell::RefCell;
use std::rc::Rc;

use bfvr_netlist::generators;
use bfvr_reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr_serve::{
    decode_checkpoint, decode_meta, encode_checkpoint, fnv1a64, level_map_of, CkptError, CkptMeta,
};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

/// One genuine checkpoint byte image (BFV lane, counter(5), iteration 2)
/// plus a manager of the width it expects and one of a different width.
fn genuine() -> (Vec<u8>, bfvr_bdd::BddManager, bfvr_bdd::BddManager) {
    let net = generators::counter(5);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let bytes = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&bytes);
    let opts = ReachOptions {
        checkpoint_every: Some(1),
        checkpoint_hook: Some(Rc::new(move |m, cp| {
            if cp.iterations != 2 || !sink.borrow().is_empty() {
                return;
            }
            let meta = CkptMeta {
                engine: cp.engine,
                order: "s1".to_string(),
                circuit: "gen:counter:5".to_string(),
                fingerprint: 0x1234_5678_9abc_def0,
                num_vars: m.num_vars(),
                level2var: level_map_of(m),
                iterations: cp.iterations,
            };
            *sink.borrow_mut() = encode_checkpoint(m, &meta, cp.state());
        })),
        ..ReachOptions::default()
    };
    let r = run(EngineKind::Bfv, &mut m, &fsm, &opts);
    assert_eq!(r.outcome, Outcome::FixedPoint);
    drop(r);
    let bytes = bytes.borrow().clone();
    assert!(!bytes.is_empty(), "hook never captured a checkpoint");

    let (fresh, _) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let (narrow, _) =
        EncodedFsm::encode(&generators::counter(3), OrderHeuristic::DfsFanin).unwrap();
    (bytes, fresh, narrow)
}

/// Recomputes the trailing checksum after a deliberate mutation, so the
/// mutation reaches the structural validators instead of dying at the
/// checksum gate.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let sum = fnv1a64(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn pristine_bytes_decode() {
    let (bytes, mut m, _) = genuine();
    decode_meta(&bytes).unwrap();
    decode_checkpoint(&bytes, &mut m).unwrap();
}

#[test]
fn truncation_at_every_length_is_structured() {
    let (bytes, mut m, _) = genuine();
    for len in 0..bytes.len() {
        let cut = &bytes[..len];
        let meta_err = decode_meta(cut).err();
        let full_err = decode_checkpoint(cut, &mut m).err();
        assert!(
            meta_err.is_some() && full_err.is_some(),
            "prefix of {len}/{} bytes was accepted",
            bytes.len()
        );
    }
}

#[test]
fn bit_flip_at_every_byte_is_structured() {
    let (bytes, mut m, _) = genuine();
    for i in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[i] ^= 0x40;
        let err = decode_checkpoint(&evil, &mut m).expect_err("bit flip accepted");
        // A flip in the magic reads as a foreign file; anywhere else the
        // trailing checksum catches it before any field is trusted.
        match (i, err) {
            (0..=7, CkptError::BadMagic | CkptError::Corrupt) => {}
            (_, CkptError::Corrupt) => {}
            (_, other) => panic!("byte {i}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn future_version_is_refused_by_number() {
    let (mut bytes, mut m, _) = genuine();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    reseal(&mut bytes);
    match decode_checkpoint(&bytes, &mut m) {
        Err(CkptError::Version { found: 99 }) => {}
        other => panic!("expected Version {{ found: 99 }}, got {other:?}"),
    }
}

#[test]
fn foreign_magic_is_refused() {
    let (mut bytes, mut m, _) = genuine();
    bytes[..8].copy_from_slice(b"GIF89a\0\0");
    match decode_checkpoint(&bytes, &mut m) {
        Err(CkptError::BadMagic) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn checksum_valid_trailing_garbage_is_malformed() {
    let (bytes, mut m, _) = genuine();
    let mut evil = bytes;
    let n = evil.len();
    // Splice four garbage bytes between state and checksum, then reseal.
    evil.splice(n - 8..n - 8, [0xde, 0xad, 0xbe, 0xef]);
    reseal(&mut evil);
    match decode_checkpoint(&evil, &mut m) {
        Err(CkptError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// Byte offset of the state-variant tag: it follows the header's four
/// length-prefixed labels, the fingerprint, the width, the level map and
/// the iteration count.
fn tag_offset(bytes: &[u8]) -> usize {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 12; // magic + version
    for _ in 0..4 {
        at += 4 + u32_at(at);
    }
    at += 8 + 4; // fingerprint + num_vars
    at += 4 + 4 * u32_at(at); // level map
    at + 8 // iterations
}

#[test]
fn retired_zonotope_tag_is_an_unknown_variant() {
    // Tag 3 carried zonotope state in older builds; a well-checksummed
    // file that reaches the body with it is refused, not misread.
    let (mut bytes, mut m, _) = genuine();
    let tag = tag_offset(&bytes);
    assert_eq!(bytes[tag], 1, "the genuine BFV checkpoint has tag 1");
    bytes[tag] = 3;
    reseal(&mut bytes);
    match decode_checkpoint(&bytes, &mut m) {
        Err(CkptError::Malformed("unknown state variant tag")) => {}
        other => panic!("expected the unknown-tag error, got {other:?}"),
    }
}

/// The state tag must be the one its engine's representation takes: the
/// genuine BFV checkpoint retagged as a χ (0) or CDEC (2) body is
/// refused, not handed to a backend of another shape.
#[test]
fn state_tag_must_match_the_engine() {
    let (bytes, mut m, _) = genuine();
    let tag = tag_offset(&bytes);
    for forged in [0, 2] {
        let mut evil = bytes.clone();
        evil[tag] = forged;
        reseal(&mut evil);
        match decode_checkpoint(&evil, &mut m) {
            Err(CkptError::Malformed("state tag disagrees with the engine")) => {}
            other => panic!("tag {forged}: expected the tag mismatch, got {other:?}"),
        }
    }
}

/// The header's representation label must be the one its engine
/// iterates on: the genuine BFV checkpoint relabelled `chi` (same
/// length) is refused by name, and so is a label no engine uses.
#[test]
fn representation_label_must_match_the_engine() {
    let (bytes, _, _) = genuine();
    let engine_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let label = 16 + engine_len + 4;
    assert_eq!(&bytes[label..label + 3], b"bfv");
    for (forged, want) in [
        (b"chi", "engine does not drive this representation"),
        (b"zdd", "unknown representation label"),
    ] {
        let mut evil = bytes.clone();
        evil[label..label + 3].copy_from_slice(forged);
        reseal(&mut evil);
        match decode_meta(&evil) {
            Err(CkptError::Malformed(msg)) => assert_eq!(msg, want),
            other => panic!("expected Malformed({want}), got {other:?}"),
        }
    }
}

#[test]
fn wrong_width_manager_is_a_mismatch() {
    let (bytes, _, mut narrow) = genuine();
    match decode_checkpoint(&bytes, &mut narrow) {
        Err(CkptError::Mismatch(_)) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
}

#[test]
fn io_and_read_paths_never_panic_on_hostile_files() {
    let dir = std::env::temp_dir().join(format!("bfvr-ckpt-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (bytes, mut m, _) = genuine();

    // A missing file is an Io error, not a panic.
    assert!(matches!(
        bfvr_serve::read_checkpoint(&dir.join("absent.ckpt"), &mut m),
        Err(CkptError::Io(_))
    ));

    // Hostile on-disk contents: empty, tiny, text, and a torn genuine
    // prefix all fail structurally through the file-reading entrypoints.
    let hostile: [(&str, Vec<u8>); 4] = [
        ("empty", Vec::new()),
        ("tiny", vec![0x42; 5]),
        ("text", b"not a checkpoint at all\n".to_vec()),
        ("torn", bytes[..bytes.len() / 2].to_vec()),
    ];
    for (name, contents) in hostile {
        let p = dir.join(format!("{name}.ckpt"));
        std::fs::write(&p, &contents).unwrap();
        assert!(
            bfvr_serve::read_meta(&p).is_err(),
            "{name}: meta accepted hostile file"
        );
        assert!(
            bfvr_serve::read_checkpoint(&p, &mut m).is_err(),
            "{name}: checkpoint accepted hostile file"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
