#!/usr/bin/env bash
# Builds the benchmark offline, runs its unit tests, checks that BENCHMARK.json
# lists exactly the workloads and metrics the runner emits, and smoke-runs
# every workload in both trace modes (about 20 s). Run from anywhere; a later
# change wires it into CI.
set -euo pipefail
cd "$(dirname "$0")/.."

run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
"${run[@]}" --check-manifest BENCHMARK.json
"${run[@]}" --smoke --seed 1

# The names on a result line are the manifest's, in both trace modes.
python3 - "${run[@]}" <<'PY'
import json, subprocess, sys
run = sys.argv[1:]
manifest = json.load(open("BENCHMARK.json"))
for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
    want = {m["name"]: m["unit"] for m in manifest[key]}
    for w in manifest["workloads"]:
        out = subprocess.run(
            run + ["--workload", w["name"], "--seed", "2", "--smoke", "--trace", trace],
            check=True, capture_output=True, text=True,
        ).stdout.strip().splitlines()[-1]
        line = json.loads(out)
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"], line.keys()
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, out
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == want, (w["name"], key, set(got) ^ set(want))
print("result lines carry exactly the manifest's metrics")
PY
echo "benchmark check passed"
