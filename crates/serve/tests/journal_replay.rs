//! Journal replay semantics: idempotence across repeated replays and
//! repeated restarts, first-wins submission, terminal-state absorption,
//! and the crash model — exactly one torn trailing line is tolerated,
//! torn interior lines are structured errors.

use std::path::PathBuf;

use bfvr_obs::json::Value;
use bfvr_serve::{replay, JobPhase, JobSpec, Journal, JournalError};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfvr-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.jsonl"))
}

/// Writes a small but complete job history: submit two jobs, crash one,
/// checkpoint-resume it, finish both.
fn write_history(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let mut j = Journal::open(path).unwrap();
    for (id, prio) in [("a", 1u8), ("b", 5)] {
        let mut spec = JobSpec::new(id, "gen:s27");
        spec.priority = prio;
        j.append(id, "submitted", vec![("spec", spec.to_json())])
            .unwrap();
    }
    j.append("a", "started", vec![("attempt", Value::Num(1.0))])
        .unwrap();
    j.append(
        "a",
        "failed",
        vec![("reason", Value::Str("child killed by signal 9".into()))],
    )
    .unwrap();
    j.append("a", "started", vec![("attempt", Value::Num(2.0))])
        .unwrap();
    j.append(
        "a",
        "checkpointed",
        vec![("file", Value::Str("a.ckpt".into()))],
    )
    .unwrap();
    j.append("a", "started", vec![("attempt", Value::Num(3.0))])
        .unwrap();
    j.append(
        "a",
        "done",
        vec![("states", Value::Num(6.0)), ("iterations", Value::Num(2.0))],
    )
    .unwrap();
    j.append("b", "started", vec![("attempt", Value::Num(1.0))])
        .unwrap();
    j.append(
        "b",
        "done",
        vec![
            ("states", Value::Num(272.0)),
            ("iterations", Value::Num(32.0)),
        ],
    )
    .unwrap();
}

#[test]
fn replay_is_idempotent_across_repeated_restarts() {
    let path = scratch("idempotent");
    write_history(&path);
    let bytes_before = std::fs::read(&path).unwrap();

    // N restarts: replaying and re-opening never mutates the file and
    // always folds to the same ledger.
    for round in 0..3 {
        let ledger = replay(&path).unwrap();
        assert_eq!(ledger.job_ids(), ["a", "b"], "round {round}");
        let a = ledger.get("a").unwrap();
        assert_eq!(a.phase, JobPhase::Done);
        assert_eq!(a.attempts, 3);
        assert_eq!(a.states, Some(6.0));
        assert_eq!(a.checkpoint.as_deref(), Some("a.ckpt"));
        let b = ledger.get("b").unwrap();
        assert_eq!(b.phase, JobPhase::Done);
        assert_eq!(b.states, Some(272.0));
        // Opening for append (what a restarting daemon does) is
        // read-only until something new happens.
        drop(Journal::open(&path).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), bytes_before, "round {round}");
    }
}

#[test]
fn resubmission_is_first_wins() {
    let path = scratch("first-wins");
    let _ = std::fs::remove_file(&path);
    let mut j = Journal::open(&path).unwrap();
    let mut first = JobSpec::new("dup", "gen:s27");
    first.priority = 9;
    j.append("dup", "submitted", vec![("spec", first.to_json())])
        .unwrap();
    let mut second = JobSpec::new("dup", "gen:queue:4");
    second.priority = 1;
    j.append("dup", "submitted", vec![("spec", second.to_json())])
        .unwrap();
    drop(j);

    let ledger = replay(&path).unwrap();
    assert_eq!(ledger.job_ids(), ["dup"]);
    let d = ledger.get("dup").unwrap();
    assert_eq!(d.spec.circuit, "gen:s27", "first submission wins");
    assert_eq!(d.spec.priority, 9);
}

#[test]
fn terminal_states_absorb_stragglers() {
    let path = scratch("absorb");
    write_history(&path);
    let mut j = Journal::open(&path).unwrap();
    // A worker's late events racing the terminal transition.
    j.append("a", "started", vec![("attempt", Value::Num(9.0))])
        .unwrap();
    j.append(
        "a",
        "failed",
        vec![("reason", Value::Str("late straggler".into()))],
    )
    .unwrap();
    drop(j);

    let a_state = replay(&path).unwrap();
    let a = a_state.get("a").unwrap();
    assert_eq!(a.phase, JobPhase::Done, "terminal state sticks");
    assert_eq!(a.states, Some(6.0));
    assert_eq!(a.attempts, 3, "straggler attempt not counted");
}

#[test]
fn one_torn_trailing_line_is_tolerated() {
    let path = scratch("torn-tail");
    write_history(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    // Simulate a crash mid-append: half of one extra record, no newline.
    bytes.extend_from_slice(br#"{"seq":99,"t_ms":123,"job":"a","ev"#);
    std::fs::write(&path, &bytes).unwrap();

    let ledger = replay(&path).unwrap();
    assert_eq!(ledger.get("a").unwrap().phase, JobPhase::Done);

    // A restarting daemon appends *after* the torn bytes are dropped —
    // the journal stays replayable forever, not just once.
    let mut j = Journal::open(&path).unwrap();
    let spec = JobSpec::new("c", "gen:s27");
    j.append("c", "submitted", vec![("spec", spec.to_json())])
        .unwrap();
    drop(j);
    let ledger = replay(&path).unwrap();
    assert_eq!(ledger.get("c").unwrap().phase, JobPhase::Queued);
}

#[test]
fn torn_interior_line_is_a_structured_error() {
    let path = scratch("torn-middle");
    write_history(&path);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let torn = &lines[3][..lines[3].len() / 2];
    lines[3] = torn;
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    match replay(&path) {
        Err(JournalError::Malformed { line, .. }) => assert_eq!(line, 4),
        other => panic!("expected Malformed at line 4, got {other:?}"),
    }
}

#[test]
fn missing_journal_is_an_empty_ledger() {
    let path = scratch("absent-never-created");
    let _ = std::fs::remove_file(&path);
    let ledger = replay(&path).unwrap();
    assert!(ledger.job_ids().is_empty());
    assert_eq!(ledger.next_seq(), 0);
}

/// Journals written by earlier builds recorded a representation label in
/// every spec (`"repr":"chi"`). Such a record still replays into a queued
/// job whose engine the reachability crate accepts.
#[test]
fn legacy_spec_with_a_repr_label_replays_runnable() {
    let path = scratch("legacy-repr");
    std::fs::write(
        &path,
        concat!(
            r#"{"event":"submitted","job":"q4","seq":0,"spec":{"checkpoint_every":1,"#,
            r#""circuit":"gen:queue:4","engine":"mono","id":"q4","order":"s1","#,
            r#""priority":0,"repr":"chi"},"t_ms":0}"#,
            "\n"
        ),
    )
    .unwrap();
    let ledger = replay(&path).unwrap();
    let runnable = ledger.runnable();
    assert_eq!(runnable.len(), 1);
    let spec = &runnable[0].spec;
    assert_eq!(runnable[0].phase, JobPhase::Queued);
    assert_eq!(
        (spec.id.as_str(), spec.circuit.as_str(), spec.order.as_str()),
        ("q4", "gen:queue:4", "s1")
    );
    assert_eq!(
        bfvr_reach::EngineKind::parse(&spec.engine),
        Some(bfvr_reach::EngineKind::Monolithic)
    );
    assert_eq!(JobSpec::from_json(&spec.to_json()).as_ref(), Some(spec));
}
