//! Job specifications: what `bfvr submit` records and the worker pool
//! executes.

use bfvr_obs::json::{obj, Value};

/// One reachability job. Everything is carried as strings/numbers —
/// the spec must survive a JSON round-trip through the journal and a
/// command-line round-trip into a `bfvr` child process.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Unique job id (journal key, checkpoint/result file stem).
    pub id: String,
    /// Circuit spec: a `gen:` generator spec or a netlist file path.
    pub circuit: String,
    /// Engine label (`BFV`/`CBM`/`MONO`/`IWLS95`/`CDEC`).
    pub engine: String,
    /// Order token (`s1`/`s2`/`d`/`o:SEED`).
    pub order: String,
    /// Scheduling priority, higher first. Sheds lowest-first when the
    /// pool degrades.
    pub priority: u8,
    /// Node-limit forwarded to the child, if any.
    pub node_limit: Option<u64>,
    /// Time-limit (seconds) forwarded to the child, if any.
    pub time_limit_secs: Option<u64>,
    /// Durable-checkpoint period forwarded to the child (iterations).
    pub checkpoint_every: u64,
    /// Fault injection for the harness: `kill@K` SIGKILLs the child at
    /// iteration K — applied on the **first** attempt only, so the
    /// supervisor's resume path is what the test exercises.
    pub fault: Option<String>,
}

impl JobSpec {
    /// A default-shaped spec for `circuit` under `id`.
    #[must_use]
    pub fn new(id: &str, circuit: &str) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            circuit: circuit.to_string(),
            engine: "BFV".to_string(),
            order: "s1".to_string(),
            priority: 0,
            node_limit: None,
            time_limit_secs: None,
            checkpoint_every: 1,
            fault: None,
        }
    }

    /// Serializes for the journal's `submitted` record.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("id", Value::Str(self.id.clone())),
            ("circuit", Value::Str(self.circuit.clone())),
            ("engine", Value::Str(self.engine.clone())),
            ("order", Value::Str(self.order.clone())),
            ("priority", Value::Num(f64::from(self.priority))),
            ("checkpoint_every", Value::Num(self.checkpoint_every as f64)),
        ];
        if let Some(n) = self.node_limit {
            pairs.push(("node_limit", Value::Num(n as f64)));
        }
        if let Some(t) = self.time_limit_secs {
            pairs.push(("time_limit_secs", Value::Num(t as f64)));
        }
        if let Some(f) = &self.fault {
            pairs.push(("fault", Value::Str(f.clone())));
        }
        obj(pairs)
    }

    /// Deserializes a journaled spec; `None` when a mandatory field is
    /// missing or mistyped (the journal line is then malformed).
    /// The `repr` label older builds wrote is ignored: the engine alone
    /// names the lane.
    #[must_use]
    pub fn from_json(v: &Value) -> Option<JobSpec> {
        let s = |k: &str| v.get(k).and_then(Value::as_str).map(String::from);
        Some(JobSpec {
            id: s("id")?,
            circuit: s("circuit")?,
            engine: s("engine")?,
            order: s("order")?,
            #[allow(clippy::cast_possible_truncation)]
            priority: v
                .get("priority")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                .min(255) as u8,
            node_limit: v.get("node_limit").and_then(Value::as_u64),
            time_limit_secs: v.get("time_limit_secs").and_then(Value::as_u64),
            checkpoint_every: v
                .get("checkpoint_every")
                .and_then(Value::as_u64)
                .unwrap_or(1),
            fault: s("fault"),
        })
    }

    /// Parses a `kill@K` fault spec into K.
    #[must_use]
    pub fn kill_at_iteration(&self) -> Option<u64> {
        self.fault
            .as_deref()
            .and_then(|f| f.strip_prefix("kill@"))
            .and_then(|k| k.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = JobSpec::new("j1", "gen:queue:4");
        spec.engine = "MONO".into();
        spec.priority = 7;
        spec.node_limit = Some(100_000);
        spec.fault = Some("kill@2".into());
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.kill_at_iteration(), Some(2));
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        assert!(JobSpec::from_json(&obj(vec![("id", Value::Str("x".into()))])).is_none());
    }
}
