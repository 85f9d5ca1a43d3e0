"""Every program of the parity corpus (``tests/corpus.py``) keeps the
bytes of its JSON and of every branch it reaches."""
import json

import corpus


def test_corpus_matches_its_golden_digests():
    golden = json.loads(corpus.GOLDEN.read_text())
    got = corpus.compute()
    assert list(got) == list(golden["programs"]), "corpus programs changed"
    changed = [name for name, pair in got.items()
               if pair != golden["programs"][name]]
    recorded = {key: golden[key] for key in corpus.environment()}
    assert changed == [], (
        f"digests changed for {len(changed)} programs, first {changed[:8]};"
        f" the golden file was taken on "
        f"{recorded} and this run is on {corpus.environment()}: amplitude "
        f"bytes can differ across platforms and numpy versions")
