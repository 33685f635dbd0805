//! Smoke test of the benchmark: the cheapest cell of every workload runs
//! untraced and traced (replay parity included), and the result lines
//! print every metric `BENCHMARK.json` lists, each with its listed unit.

use bfvr_perfbench::workloads;
use bfvr_perfbench::{end_to_end, host, pass_order, per_layer, replay_pass, result_line, run_pass};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The value of every `"key": "value"` pair inside the `section` array.
fn listed(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    let tag = format!("\"{key}\": \"");
    body.match_indices(&tag)
        .map(|(i, _)| {
            let rest = &body[i + tag.len()..];
            rest[..rest.find('"').expect("the string closes")].to_string()
        })
        .collect()
}

/// Asserts `line` prints exactly the listed metrics, each with its unit.
fn assert_prints(line: &str, names: &[String], units: &[String]) {
    assert_eq!(line.matches("\"unit\": ").count(), names.len(), "{line}");
    for (name, unit) in names.iter().zip(units) {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{name} not printed in {line}"));
        let entry = &line[at..at + line[at..].find('}').expect("entry closes")];
        assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{entry}");
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let json = benchmark_json();
    let names: Vec<String> = workloads::all()
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    assert_eq!(listed(&json, "workloads", "name"), names);
}

#[test]
fn cheapest_cells_print_every_listed_metric() {
    let json = benchmark_json();
    let (e2e, e2e_units) = (
        listed(&json, "end_to_end", "name"),
        listed(&json, "end_to_end", "unit"),
    );
    let (layer, layer_units) = (
        listed(&json, "per_layer", "name"),
        listed(&json, "per_layer", "unit"),
    );
    assert_eq!(e2e.len(), 5);
    for w in workloads::all() {
        let all = w.cells().expect("workload cells build");
        let cheapest = all
            .iter()
            .min_by_key(|c| c.latches)
            .expect("workloads have cells")
            .clone();
        let cells = vec![cheapest];
        let order = pass_order(1, 1, 1);
        let pass = run_pass(&w, &cells, &order).expect("cell sets up");
        assert!(pass[0].solved(&cells[0]), "{}: {:?}", w.name, pass[0]);
        let layers = replay_pass(&w, &cells, &order, &pass).expect("replay parity");

        let probe_ms = host::REFERENCE_MS;
        let untraced = result_line(
            true,
            1,
            0,
            &end_to_end(&cells, std::slice::from_ref(&pass), probe_ms),
        );
        assert_prints(&untraced, &e2e, &e2e_units);
        let traced = result_line(true, 1, 0, &per_layer(&[(layers, pass)], probe_ms));
        assert_prints(&traced, &layer, &layer_units);
    }
}
