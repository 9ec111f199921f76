//! Every metric the benchmark prints is named in `BENCHMARK.json`, with
//! the same unit, and the JSON line of each mode carries exactly the
//! metrics `BENCHMARK.json` lists for it.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::RunResult;

/// `(name, unit)` of every entry of the `key` array of BENCHMARK.json.
/// A small scan rather than a JSON parser: entries are flat objects
/// whose `name` key comes before their `unit` key.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let end = body.find(']').expect("array ends");
    let body = &body[..end];
    let field = |obj: &str, k: &str| -> Option<String> {
        let at = obj.find(&format!("\"{k}\""))?;
        let rest = &obj[at + k.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("entry has a name"),
                field(obj, "unit").expect("entry has a unit"),
            )
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
}

#[test]
fn json_lines_carry_exactly_the_listed_metrics() {
    let json = benchmark_json();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = perfbench::render(&RunResult::default(), trace);
        let last = out.lines().last().expect("a JSON line");
        let metrics = &last[last.find("\"metrics\"").expect("metrics key")..];
        let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
        // Each chunk but the last ends with the next metric's name.
        let printed: Vec<&str> = chunks[..chunks.len() - 1]
            .iter()
            .filter_map(|chunk| {
                let end = chunk.rfind("\":")?;
                let start = chunk[..end].rfind('"')? + 1;
                Some(&chunk[start..end])
            })
            .collect();
        let names: Vec<String> = listed(&json, key).into_iter().map(|(n, _)| n).collect();
        assert_eq!(printed, names, "trace={trace}");
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let json = benchmark_json();
    let start = json.find("\"workloads\"").expect("workloads key");
    let body = &json[start..start + json[start..].find(']').expect("array ends")];
    let names: Vec<&str> = body
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1))
        .collect();
    assert_eq!(names, perfbench::WORKLOADS);
}
