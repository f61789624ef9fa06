#!/usr/bin/env python3
"""CI driver for the layer-0 static checks (docs/STATIC.md).

Default pipeline (all gating):
  1. Extract the protocol model (tools/proto_model.py pass 1) — fails on
     exhaustiveness / dead-case / stale-annotation findings.
  2. Compare each family against its golden snapshot under
     tests/static/golden/ (regenerate with --update).
  3. Cross-validate the model against docs/PROTOCOL.md's tables.
  4. Determinism lint (pass 2) over src/ — fails on any unannotated finding.
  5. Static-vs-dynamic coverage report against --observed (informational,
     never fails the run; the file is produced by litmus runs with
     LRCSIM_TRANSITION_LOG set — see docs/STATIC.md).

--self-test proves the analyzer can actually catch what it claims to:
  * every fixture under tests/static/fixtures/ must produce exactly the
    findings its `// EXPECT: <rule>` markers announce, and the _ok_
    fixtures must produce none;
  * a mutation test: a copy of the tree with a `case` deleted from
    src/proto/lrc.cpp, and another with the MSI default annotation stripped,
    must both fail extraction.

Run from anywhere:  python3 scripts/run_static_checks.py [--repo ROOT]
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import proto_model  # noqa: E402

GOLDEN_DIR_REL = Path("tests/static/golden")
FIXTURE_DIR_REL = Path("tests/static/fixtures")
EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def _print_findings(findings, prefix="  "):
    for f in findings:
        loc = f.get("file", "")
        if f.get("line"):
            loc += f":{f['line']}"
        print(f"{prefix}{loc + ': ' if loc else ''}[{f['rule']}] {f['msg']}")


def run_extract(repo: Path, out: Path):
    model, findings = proto_model.build_protocol_model(repo)
    gating = proto_model.gating(findings)
    if findings:
        _print_findings(findings)
    if model:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(model, indent=1) + "\n")
    return model, len(gating) == 0


def check_goldens(repo: Path, model: dict, update: bool) -> bool:
    golden_dir = repo / GOLDEN_DIR_REL
    ok = True
    for fam, data in sorted(model["families"].items()):
        path = golden_dir / f"proto_model_{fam}.json"
        text = json.dumps(data, indent=1, sort_keys=True) + "\n"
        if update:
            golden_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"  updated {path.relative_to(repo)}")
            continue
        if not path.is_file():
            print(f"  MISSING golden {path.relative_to(repo)} "
                  "(run with --update)")
            ok = False
            continue
        if path.read_text() != text:
            old = json.loads(path.read_text())
            for key in sorted(set(old) | set(data)):
                if old.get(key) != data.get(key):
                    print(f"  {fam}: '{key}' drifted from golden")
            print(f"  golden mismatch for {fam} — the protocol model "
                  "changed; review and run with --update")
            ok = False
    return ok


def run_docs(repo: Path, model: dict) -> bool:
    findings = proto_model.check_docs(repo, model)
    _print_findings(findings)
    return not findings


def run_lint(repo: Path) -> bool:
    findings = proto_model.lint_tree(repo)
    _print_findings(findings)
    print(f"  determinism lint: {len(findings)} finding(s)")
    return not findings


def run_coverage(repo: Path, model: dict, observed: Path | None) -> None:
    if observed is None or not observed.is_file():
        print("  (no observed-transition log; pass --observed or see "
              "docs/STATIC.md — skipping)")
        return
    gaps = proto_model.coverage_report(model, observed)
    if not gaps:
        print("  every declared transition was exercised by the corpus")
    for g in gaps:
        print(f"  gap: {g}")
    print(f"  coverage: {len(gaps)} declared-but-unexercised item(s) "
          "(informational)")


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def expected_findings(path: Path) -> set[tuple[str, int]]:
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = EXPECT_RE.search(line)
        if m:
            for rule in re.split(r"\s*,\s*", m.group(1)):
                out.add((rule, lineno))
    return out


def self_test_fixtures(repo: Path) -> bool:
    fdir = repo / FIXTURE_DIR_REL
    ok = True
    for path in sorted(fdir.glob("*.cpp")):
        if "det" in path.name:
            found = proto_model.lint_file(path, path.name)
        else:
            found = proto_model.audit_fixture(path)
        got = {(f["rule"], f.get("line", 0)) for f in found}
        want = expected_findings(path)
        if got == want:
            print(f"  {path.name}: OK ({len(want)} expected finding(s))")
            continue
        ok = False
        print(f"  {path.name}: FAIL")
        for rule, line in sorted(want - got):
            print(f"    missing expected finding [{rule}] at line {line}")
        for rule, line in sorted(got - want):
            print(f"    unexpected finding [{rule}] at line {line}")
    return ok


MUTATION_COPY = ("src/proto", "src/mesh/message.hpp", "src/check/checker.hpp",
                 "src/sim/event.hpp", "src/core/params.hpp")


def _mutated_tree(repo: Path, tmp: Path) -> Path:
    for spec in MUTATION_COPY:
        src, dst = repo / spec, tmp / spec
        dst.parent.mkdir(parents=True, exist_ok=True)
        if src.is_dir():
            shutil.copytree(src, dst)
        else:
            shutil.copy(src, dst)
    return tmp


def self_test_mutations(repo: Path) -> bool:
    ok = True

    def expect_fail(label: str, edit) -> bool:
        with tempfile.TemporaryDirectory() as d:
            tree = _mutated_tree(repo, Path(d))
            edit(tree)
            _, findings = proto_model.build_protocol_model(tree)
            gating = proto_model.gating(findings)
            if gating:
                print(f"  mutation '{label}': caught "
                      f"({gating[0]['rule']}: {gating[0]['msg'][:70]}...)")
                return True
            print(f"  mutation '{label}': NOT CAUGHT — the static gate "
                  "is broken")
            return False

    def drop_case(tree: Path):
        f = tree / "src/proto/lrc.cpp"
        text = f.read_text()
        needle = ("    case MsgKind::kNoticeAck:\n"
                  "      return home_notice_ack(msg, start);\n")
        assert needle in text, "mutation target moved; update self-test"
        f.write_text(text.replace(needle, ""))

    def drop_annotation(tree: Path):
        f = tree / "src/proto/msi.cpp"
        lines = f.read_text().splitlines(keepends=True)
        out = [ln for ln in lines
               if "proto-lint" not in ln and not ln.lstrip().startswith(
                   "//   k") and "LRC-family multiple-writer" not in ln]
        assert len(out) < len(lines), "annotation target moved"
        f.write_text("".join(out))

    ok &= expect_fail("delete case kNoticeAck from lrc.cpp", drop_case)
    ok &= expect_fail("strip proto-lint annotations from msi.cpp",
                      drop_annotation)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path, default=None,
                    help="proto_model.json destination "
                         "(default <repo>/build/proto_model.json)")
    ap.add_argument("--observed", type=Path, default=None,
                    help="observed-transition log for the coverage report "
                         "(default tests/static/observed_transitions.txt)")
    ap.add_argument("--update", action="store_true",
                    help="regenerate the golden snapshots")
    ap.add_argument("--self-test", action="store_true",
                    help="run fixture + mutation self-tests instead")
    args = ap.parse_args()
    repo = args.repo.resolve()

    if args.self_test:
        print("== fixture self-test ==")
        a = self_test_fixtures(repo)
        print("== mutation self-test ==")
        b = self_test_mutations(repo)
        print("static self-test:", "OK" if a and b else "FAILED")
        return 0 if a and b else 1

    out = args.out or repo / "build" / "proto_model.json"
    observed = args.observed
    if observed is None:
        default_obs = repo / "tests" / "static" / "observed_transitions.txt"
        observed = default_obs if default_obs.is_file() else None

    ok = True
    print("== pass 1: protocol-model extraction ==")
    model, good = run_extract(repo, out)
    ok &= good
    if not model:
        print("static checks: FAILED (no model)")
        return 1
    print(f"  {len(model['families'])} families -> {out}")
    print("== golden snapshots ==")
    ok &= check_goldens(repo, model, args.update)
    print("== docs/PROTOCOL.md cross-validation ==")
    ok &= run_docs(repo, model)
    print("== pass 2: determinism lint ==")
    ok &= run_lint(repo)
    print("== static-vs-dynamic coverage (informational) ==")
    run_coverage(repo, model, observed)
    print("static checks:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
