//! Runs the whole benchmark in `--quick` mode (inputs ÷ 20, one
//! repetition) and checks that what it emits is what `BENCHMARK.json`
//! promises: the same workloads, the same end-to-end metrics with the
//! same units and bounds, the same per-layer metrics with the same
//! units — no more, no fewer — and every output check passing.
//!
//! Run with `cargo test --release --offline`: the world and classifier
//! are not shrunk, and a debug build takes minutes to make them.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Just enough JSON for the two files this test reads.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(
            self.bytes.get(self.pos),
            Some(&byte),
            "expected {:?} at offset {}",
            byte as char,
            self.pos
        );
        self.pos += 1;
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(word.as_bytes()),
            "bad literal at offset {}",
            self.pos
        );
        self.pos += word.len();
        value
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = Vec::new();
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let escaped = self.bytes[self.pos];
                    self.pos += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).expect("utf-8 string")
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.bytes[self.pos] {
            b'{' => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_space();
                if self.bytes[self.pos] == b'}' {
                    self.pos += 1;
                    return Json::Object(map);
                }
                loop {
                    self.skip_space();
                    let key = self.string();
                    self.expect(b':');
                    let previous = map.insert(key.clone(), self.value());
                    assert!(previous.is_none(), "duplicate key {key}");
                    self.skip_space();
                    self.pos += 1;
                    match self.bytes[self.pos - 1] {
                        b',' => continue,
                        b'}' => return Json::Object(map),
                        other => panic!("unexpected {:?} in object", other as char),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.bytes[self.pos] == b']' {
                    self.pos += 1;
                    return Json::Array(items);
                }
                loop {
                    items.push(self.value());
                    self.skip_space();
                    self.pos += 1;
                    match self.bytes[self.pos - 1] {
                        b',' => continue,
                        b']' => return Json::Array(items),
                        other => panic!("unexpected {:?} in array", other as char),
                    }
                }
            }
            b'"' => Json::String(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                Json::Number(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value();
    parser.skip_space();
    assert_eq!(
        parser.pos,
        text.len(),
        "trailing bytes after the JSON value"
    );
    value
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => map.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{key}: not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::String(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

/// What the test compares per metric: its unit and, for an end-to-end
/// metric, its regression bound.
type Declared = BTreeMap<String, (String, Option<Json>)>;

fn declaration(name: &str, m: &Json) -> (String, (String, Option<Json>)) {
    let bound = match m {
        Json::Object(fields) => fields.get("bound").cloned(),
        _ => None,
    };
    (name.to_string(), (m.get("unit").text().to_string(), bound))
}

/// One of `BENCHMARK.json`'s metric lists.
fn declared(benchmark: &Json, list: &str) -> Declared {
    benchmark
        .get(list)
        .items()
        .iter()
        .map(|m| declaration(m.get("name").text(), m))
        .collect()
}

#[test]
fn quick_run_emits_exactly_what_benchmark_json_declares() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = parse(
        &std::fs::read_to_string(package.join("../BENCHMARK.json")).expect("read BENCHMARK.json"),
    );
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").text().to_string())
        .collect();
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    assert!(
        end_to_end.contains_key("setup_s"),
        "the contract requires a setup_s metric"
    );

    let seed = "3";
    let status = Command::new(env!("CARGO_BIN_EXE_spoofwatch-benchmark"))
        .args(["--quick", "--seed", seed])
        .status()
        .expect("run the benchmark");
    assert!(status.success(), "--quick run failed: {status}");

    let result = parse(
        &std::fs::read_to_string(package.join(format!("results/quick-seed{seed}.json")))
            .expect("read the result file"),
    );
    assert_eq!(result.get("seed"), &Json::Number(3.0));
    let runs = result.get("runs").items();
    for (traced, expected) in [(false, &end_to_end), (true, &per_layer)] {
        let set: Vec<&Json> = runs
            .iter()
            .filter(|r| r.get("traced") == &Json::Bool(traced))
            .collect();
        let names: Vec<&str> = set.iter().map(|r| r.get("workload").text()).collect();
        assert_eq!(names, workloads, "workloads of the traced={traced} set");
        for run in set {
            assert_eq!(run.get("correct"), &Json::Bool(true), "{run:?}");
            let Json::Object(metrics) = run.get("metrics") else {
                panic!("metrics is not an object");
            };
            let emitted: Declared = metrics
                .iter()
                .map(|(name, m)| declaration(name, m))
                .collect();
            assert_eq!(
                &emitted,
                expected,
                "metrics of {} (traced={traced})",
                run.get("workload").text()
            );
        }
    }
}
