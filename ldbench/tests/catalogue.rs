//! `BENCHMARK.json` at the repository root names exactly the metrics
//! the binary reports, with the same units and directions.

use ldbench::metrics::{Def, END_TO_END, PER_LAYER};

/// `(name, unit, better)` of every metric object in one section.
fn section(json: &str, key: &str) -> Vec<(String, String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, f: &str| {
        let at = obj
            .find(&format!("\"{f}\""))
            .unwrap_or_else(|| panic!("{f} in {obj}"));
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').unwrap() + 1;
        let close = open + rest[open..].find('"').unwrap();
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
        .collect()
}

fn expected(defs: &[Def]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            (d.name.to_string(), d.unit.to_string(), better.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(section(&json, "end_to_end"), expected(END_TO_END));
    assert_eq!(section(&json, "per_layer"), expected(PER_LAYER));
}
