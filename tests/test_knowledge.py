"""Blackboard versioning, tf-idf retrieval, and memory windows."""

import errno
import hashlib
import math
import os
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ModuleNotFoundError:  # pragma: no cover
    pytest.skip("hypothesis not installed", allow_module_level=True)

from oracles import tfidf_rank
import marco.knowledge
from marco.errors import KnowledgeError
from marco.gateway import ChatMessage, ToolCallRequest
from marco.knowledge import (
    Artifact,
    Blackboard,
    Document,
    KnowledgeBase,
    MemoryWindow,
    apply_window,
    load_kb_dir,
    retrieve,
    tokenize,
)


class TestBlackboard:
    def test_versions_increment_per_key(self):
        board = Blackboard({"n1": ["report"]})
        assert board.write("report", "first", producer="n1") == 1
        assert board.write("report", "second", producer="n1") == 2
        assert board.read("report") == "second"
        assert board.entry("report").version == 2
        assert board.entry("report").producer == "n1"

    def test_undeclared_output_rejected(self):
        board = Blackboard({"n1": ["report"]})
        with pytest.raises(KnowledgeError) as exc:
            board.write("other", "x", producer="n1")
        assert exc.value.code == "UNDECLARED_OUTPUT"
        with pytest.raises(KnowledgeError) as exc:
            board.write("report", "x", producer="ghost")
        assert exc.value.code == "UNDECLARED_OUTPUT"

    def test_seed_bypasses_declarations(self):
        board = Blackboard()
        assert board.seed("design_brief", "text") == 1
        assert board.entry("design_brief").producer == Blackboard.SEED_PRODUCER

    def test_absent_key(self):
        board = Blackboard()
        with pytest.raises(KnowledgeError) as exc:
            board.read("missing")
        assert exc.value.code == "KEY_ABSENT"
        assert not board.has("missing")

    def test_declarations_accumulate(self):
        board = Blackboard({"n1": ["a"]})
        board.declare_outputs("n1", ["b"])
        board.write("a", 1, producer="n1")
        board.write("b", 2, producer="n1")
        assert board.keys() == ["a", "b"]

    def test_snapshot_sorted_and_stable(self):
        board = Blackboard({"n1": ["b", "a"]})
        board.write("b", "vb", producer="n1")
        board.write("a", "va", producer="n1")
        snap = board.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"] == {"value": "va", "producer": "n1", "version": 1}
        assert board.snapshot() == snap

    def test_concurrent_writes_keep_versions_gapless(self):
        board = Blackboard()
        seen: list[int] = []
        lock = threading.Lock()

        def writer():
            for _ in range(25):
                version = board.seed("shared", "x")
                with lock:
                    seen.append(version)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == list(range(1, 201))
        assert board.entry("shared").version == 200


class TestBlackboardStage:
    def test_reads_own_writes_then_shared_board(self):
        board = Blackboard({"n1": ["a", "b"]})
        board.seed("brief", "shared text")
        stage = board.stage("n1")
        stage.write("a", "staged", producer="n1")
        assert stage.read("a") == "staged" and stage.has("a")
        assert stage.read("brief") == "shared text" and stage.has("brief")
        assert not stage.has("b")
        assert not board.has("a")

    def test_versions_numbered_as_the_shared_board_would(self):
        board = Blackboard({"n1": ["a"], "n2": ["b"]})
        board.write("a", "v1", producer="n1")
        stage = board.stage("n1")
        assert stage.write("a", "v2", producer="n1") == 2
        assert stage.write("a", "v3", producer="n1") == 3
        assert stage.entry("a") == Artifact(value="v3", producer="n1", version=3)
        assert board.entry("a").version == 1
        stage.commit()
        assert board.entry("a").version == 3 and board.read("a") == "v3"
        assert board.write("a", "v4", producer="n1") == 4

    def test_undeclared_key_raises(self):
        stage = Blackboard({"n1": ["a"]}).stage("n1")
        with pytest.raises(KnowledgeError) as exc:
            stage.write("other", "x", producer="n1")
        assert exc.value.code == "UNDECLARED_OUTPUT"

    def test_prepare_checks_without_applying(self):
        board = Blackboard({"n1": ["a"]})
        board.write("a", "v1", producer="n1")
        assert board.prepare("a", "v2", producer="n1") == Artifact(value="v2", producer="n1", version=2)
        after = Artifact(value="v5", producer="n1", version=5)
        assert board.prepare("a", "v6", producer="n1", after=after).version == 6
        assert board.entry("a").version == 1
        with pytest.raises(KnowledgeError) as exc:
            board.prepare("other", "x", producer="n1")
        assert exc.value.code == "UNDECLARED_OUTPUT"

    def test_board_commit_applies_prepared_writes(self):
        board = Blackboard({"n1": ["a", "b"]})
        board.commit({"a": board.prepare("a", 1, producer="n1"), "b": board.prepare("b", 2, producer="n1")})
        assert board.snapshot() == {
            "a": {"value": 1, "producer": "n1", "version": 1},
            "b": {"value": 2, "producer": "n1", "version": 1},
        }

    def test_uncommitted_stage_leaves_no_trace(self):
        board = Blackboard({"n1": ["a"]})
        board.stage("n1").write("a", "dropped", producer="n1")
        assert board.snapshot() == {}


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Setup-Time, slack=0.1!") == ["setup", "time", "slack", "0", "1"]

    def test_empty(self):
        assert tokenize("?!") == []


CORPUS = {
    "d1": "timing slack analysis",
    "d2": "slack slack margin",
    "d3": "unrelated prose",
}


DOC_WORDS = ["slack", "net", "clock", "skew", "cap", "hold"]
QUERY_WORDS = DOC_WORDS + ["zebra", "quartz"]  # the last two appear in no document


def corpus_kb(docs: dict[str, str] = CORPUS) -> KnowledgeBase:
    return KnowledgeBase("test", [Document(doc_id, text) for doc_id, text in docs.items()])


class TestRetrieve:
    def test_scores_match_formula(self):
        kb = corpus_kb()
        results = retrieve(kb, "slack", k=5)
        idf = math.log((3 + 1) / (2 + 1)) + 1.0
        assert [(doc.id, score) for doc, score in results] == [("d2", 2 * idf), ("d1", 1 * idf)]

    def test_zero_score_dropped(self):
        kb = corpus_kb()
        ids = [doc.id for doc, _ in retrieve(kb, "slack", k=5)]
        assert "d3" not in ids

    def test_ties_break_by_id_ascending(self):
        kb = corpus_kb({"zz": "margin", "aa": "margin"})
        assert [doc.id for doc, _ in retrieve(kb, "margin", k=2)] == ["aa", "zz"]

    def test_k_cuts(self):
        kb = corpus_kb()
        assert len(retrieve(kb, "slack", k=1)) == 1

    def test_empty_query(self):
        with pytest.raises(KnowledgeError) as exc:
            retrieve(corpus_kb(), "!!!", k=3)
        assert exc.value.code == "EMPTY_QUERY"

    def test_bad_k(self):
        with pytest.raises(ValueError):
            retrieve(corpus_kb(), "slack", k=0)

    def test_no_hits_gives_empty(self):
        assert retrieve(corpus_kb(), "zebra", k=3) == []

    def test_empty_kb(self):
        assert retrieve(KnowledgeBase("empty"), "slack", k=3) == []

    @settings(max_examples=80, deadline=None)
    @given(
        texts=st.lists(st.lists(st.sampled_from(DOC_WORDS), max_size=6).map(" ".join), max_size=8),
        query=st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=5).map(" ".join),
        k=st.integers(min_value=1, max_value=9),
    )
    def test_matches_naive_oracle(self, texts, query, k):
        docs = {f"d{i}": text for i, text in enumerate(texts)}
        kb = corpus_kb(docs)
        got = [(doc.id, score) for doc, score in retrieve(kb, query, k)]
        assert got == tfidf_rank(docs, query, k)


# Tokens that are substrings of one another, in mixed case and beside
# non-ASCII letters (which tokenize as separators, or lowercase to ASCII, as
# the Kelvin sign does to "k", or to more than one code point, as U+0130 does
# to "i" and a combining dot), underscores and digit runs.
NESTED_WORDS = [
    "ack", "slack", "Slack", "SLACKS", "slack2", "sl\u00e4ck", "sla\u212a", "\u00e9ack", "k",
    "\u0130", "\u0130slack", "_", "slack_ack", "2024", "s2024",
]
NESTED_QUERY_WORDS = [
    "ack", "slack", "slacks", "slack2", "SLACK", "k", "2", "sl", "ackslack", "zebra", "i", "2024", "s2024",
]

NESTED_TEXT = st.lists(
    st.tuples(st.sampled_from(NESTED_WORDS), st.sampled_from(["", " ", "-", "\u00df", "\n", "_", "\u0130"])), max_size=6
).map(lambda pairs: "".join(word + sep for word, sep in pairs))


class TestPrefilteredRetrieve:
    """Postings visit only documents holding the token as a substring; the
    corpora here make substring hits that are not token hits."""

    @settings(max_examples=150, deadline=None)
    @given(
        texts=st.lists(NESTED_TEXT, min_size=1, max_size=8),
        queries=st.lists(
            st.lists(st.sampled_from(NESTED_QUERY_WORDS), min_size=1, max_size=4).map(" ".join), min_size=2, max_size=2
        ),
    )
    def test_matches_oracle_on_nested_tokens(self, texts, queries):
        docs = {f"d{i}": text for i, text in enumerate(texts)}
        kb = KnowledgeBase("test", [Document(doc_id, text) for doc_id, text in docs.items()])
        for query in queries:  # the second query reuses postings the first built
            got = [(doc.id, score) for doc, score in retrieve(kb, query, 9)]
            assert got == tfidf_rank(docs, query, 9)


class TestKnowledgeBase:
    def test_duplicate_doc_id(self):
        with pytest.raises(KnowledgeError) as exc:
            KnowledgeBase("kb", [Document("d1", "x"), Document("d1", "y")])
        assert exc.value.code == "DUPLICATE_DOC"

    def test_index_consistency(self):
        kb = corpus_kb()
        assert kb.token_count("d2", "slack") == 2
        assert kb.token_count("d2", "zebra") == 0
        assert kb.doc_frequency("slack") == 2
        assert kb.doc_frequency("zebra") == 0
        assert len(kb) == 3
        assert kb.ids() == ["d1", "d2", "d3"]

    def test_documents_never_tokenized(self, monkeypatch):
        calls = []
        real = marco.knowledge.tokenize
        monkeypatch.setattr(marco.knowledge, "tokenize", lambda text: calls.append(text) or real(text))
        kb = corpus_kb()
        assert kb.doc_frequency("slack") == 2
        assert kb.doc_frequency("ack") == 0  # a substring of "slack", not a token
        retrieve(kb, "slack margin", k=3)
        assert calls == ["slack margin"]  # the query only

    def test_corpus_built_only_when_queried(self, monkeypatch):
        builds = []
        real = KnowledgeBase._build_corpus
        monkeypatch.setattr(KnowledgeBase, "_build_corpus", lambda kb: builds.append(kb.name) or real(kb))
        kb = corpus_kb()
        assert kb.parse_once("d1", str.upper) == CORPUS["d1"].upper()
        assert kb.get("d2").text == CORPUS["d2"] and kb.ids() == ["d1", "d2", "d3"] and len(kb) == 3
        assert kb.doc_frequency("SLACK") == 0  # not a token: nothing to search
        assert builds == []
        assert kb.doc_frequency("slack") == 2
        assert kb.doc_frequency("margin") == 1
        assert builds == ["test"]

    def test_concurrent_first_queries_build_index_once(self, monkeypatch):
        """Eight threads query at once; the corpus is built once, each
        token's postings are searched once, and ranks match the oracle."""
        docs = {f"d{i}": " ".join(DOC_WORDS[(i * j) % len(DOC_WORDS)] for j in range(i + 3)) for i in range(40)}
        builds = []
        searched = []
        real_build = KnowledgeBase._build_corpus
        real_search = KnowledgeBase._search

        def build(kb):
            builds.append(kb.name)
            time.sleep(0.01)  # yields, so the other threads reach the lock meanwhile
            real_build(kb)

        def search(kb, token):
            searched.append(token)
            time.sleep(0.001)
            return real_search(kb, token)

        monkeypatch.setattr(KnowledgeBase, "_build_corpus", build)
        monkeypatch.setattr(KnowledgeBase, "_search", search)
        kb = corpus_kb(docs)
        queries = [" ".join(QUERY_WORDS[i:i + 3]) for i in range(8)]
        start = threading.Barrier(len(queries))
        results: dict[str, list] = {}

        def query(text):
            start.wait(timeout=10)
            results[text] = [(doc.id, score) for doc, score in retrieve(kb, text, k=5)]

        threads = [threading.Thread(target=query, args=(text,)) for text in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert builds == ["test"]
        assert sorted(searched) == sorted({token for text in queries for token in tokenize(text)})
        assert results == {text: tfidf_rank(docs, text, 5) for text in queries}

    def test_concurrent_parses_run_once(self):
        kb = corpus_kb()
        calls = []
        start = threading.Barrier(8)

        def parse(text):
            calls.append(text)
            time.sleep(0.01)
            return text.upper()

        def use():
            start.wait(timeout=10)
            assert kb.parse_once("d1", parse) == CORPUS["d1"].upper()

        threads = [threading.Thread(target=use) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert calls == [CORPUS["d1"]]
        assert kb.parsed == {"d1": CORPUS["d1"].upper()}

    def test_get(self):
        kb = corpus_kb()
        assert kb.get("d1").text == CORPUS["d1"]
        assert kb.get("nope") is None


def counted(docs: dict[str, str], token: str) -> dict[str, int]:
    """The postings of ``token`` by tokenizing every document: the oracle."""
    counts = {doc_id: Counter(tokenize(text))[token] for doc_id, text in docs.items()}
    return {doc_id: count for doc_id, count in counts.items() if count}


class TestCorpusBoundaries:
    """The corpus joins every document into one text; no token may cross a
    document's edge or be lost at one."""

    def postings(self, docs: dict[str, str], token: str) -> dict[str, int]:
        got = dict(corpus_kb(docs).postings(token))
        assert got == counted(docs, token)
        return got

    def test_token_split_across_documents_not_found(self):
        docs = {"a": "sla", "b": "ck"}
        assert self.postings(docs, "slack") == {}
        assert self.postings(docs, "sla") == {"a": 1}
        assert self.postings(docs, "ck") == {"b": 1}

    def test_tokens_at_first_and_last_character(self):
        docs = {"a": "slack", "b": "x slack", "c": "slack y", "d": "slack"}
        assert self.postings(docs, "slack") == {"a": 1, "b": 1, "c": 1, "d": 1}
        assert self.postings(docs, "x") == {"b": 1}
        assert self.postings(docs, "y") == {"c": 1}

    def test_empty_documents(self):
        docs = {"a": "", "b": "slack", "c": "", "d": "slack slack", "e": ""}
        assert self.postings(docs, "slack") == {"b": 1, "d": 2}
        assert self.postings({"a": "", "b": ""}, "slack") == {}
        assert retrieve(corpus_kb({"a": ""}), "slack", k=3) == []

    def test_text_that_lowercases_longer_before_a_hit(self):
        docs = {"a": "\u0130" * 3, "b": "ab", "c": "x"}  # U+0130 lowers to "i" and U+0307
        assert self.postings(docs, "ab") == {"b": 1}
        assert self.postings(docs, "x") == {"c": 1}
        assert self.postings(docs, "i") == {"a": 3}

    @pytest.mark.parametrize("text", ["", "SLACK", "sl ack", "a_b", "slack ", "i\u0307"])
    def test_non_token_strings_have_no_postings(self, text):
        kb = corpus_kb({"d1": "slack sl ack a_b SLACK \u0130"})
        assert kb.token_count("d1", text) == 0
        assert kb.doc_frequency(text) == 0
        assert [kb.token_count("d1", token) for token in ("slack", "sl", "a", "i")] == [2, 1, 1, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="aAbk_0 -\n\u0130\u212a\u00df\u00e4\ud800", max_size=12), max_size=6),
        tokens=st.lists(st.text(alphabet="abki0_ ", min_size=1, max_size=3), min_size=1, max_size=4),
    )
    def test_postings_match_tokenized_documents(self, texts, tokens):
        docs = {f"d{i}": text for i, text in enumerate(texts)}
        kb = corpus_kb(docs)
        every = {token for text in texts for token in tokenize(text)}
        for token in sorted(every) + tokens:
            assert dict(kb.postings(token)) == counted(docs, token)


class TestLoadKbDir:
    def test_stems_tags_and_text(self, tmp_path):
        (tmp_path / "alpha.txt").write_text("tags: syntax, lint\nbody line one\nbody line two\n")
        (tmp_path / "beta.txt").write_text("plain text with no tag header\n")
        (tmp_path / "ignored.md").write_text("not a txt document")
        kb = load_kb_dir("dirkb", tmp_path)
        assert kb.ids() == ["alpha", "beta"]
        alpha = kb.get("alpha")
        assert alpha.tags == ("syntax", "lint")
        assert alpha.text == "body line one\nbody line two\n"
        assert kb.get("beta").tags == ()

    def test_name_order_line_endings_and_stems(self, tmp_path):
        (tmp_path / "b.txt").write_bytes(b"tags: x\r\nline one\r\nline two\rend")
        (tmp_path / "a.b.txt").write_bytes(b"dotted")
        (tmp_path / "..txt").write_bytes(b"dots only")
        kb = load_kb_dir("kb", tmp_path)
        assert kb.ids() == [".", "a.b", "b"]
        assert kb.get("b").tags == ("x",)
        assert kb.get("b").text == "line one\nline two\nend"
        assert [doc.text for doc in (kb.get("."), kb.get("a.b"))] == ["dots only", "dotted"]

    def test_directory_named_txt_is_unreadable(self, tmp_path):
        (tmp_path / "sub.txt").mkdir()
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert str(tmp_path / "sub.txt") in str(exc.value)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path / "nowhere")
        assert exc.value.code == "KB_DIR_MISSING"
        assert str(exc.value).endswith(f"{str(tmp_path / 'nowhere')!r} does not exist")
        (tmp_path / "plain.txt").write_text("a file")
        with pytest.raises(KnowledgeError, match="does not exist$"):
            load_kb_dir("kb", tmp_path / "plain.txt")

    def test_dir_in_a_symlink_loop_says_why_it_cannot_be_opened(self, tmp_path):
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path / "loop")
        assert exc.value.code == "KB_DIR_MISSING"
        assert str(exc.value).endswith(f"cannot be opened: {os.strerror(errno.ELOOP)}")

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root reads any directory")
    def test_unreadable_dir_says_why_it_cannot_be_opened(self, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0)
        try:
            with pytest.raises(KnowledgeError) as exc:
                load_kb_dir("kb", locked)
        finally:
            locked.chmod(0o700)
        assert exc.value.code == "KB_DIR_MISSING"
        assert str(exc.value).endswith(f"cannot be opened: {os.strerror(errno.EACCES)}")

    def test_non_utf8_file_is_coded_error(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"\xff\xfe not utf-8")
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert str(tmp_path / "bad.txt") in str(exc.value)



@pytest.fixture
def loaded(monkeypatch):
    """An empty table of loaded knowledge bases for one test."""
    table: dict = {}
    monkeypatch.setattr(marco.knowledge, "_LOADED", table)
    return table


@pytest.fixture
def searches(monkeypatch):
    """Every token search and, within the first of a build, "build", in order."""
    calls = []
    real_build = KnowledgeBase._build_corpus
    real_search = KnowledgeBase._search
    monkeypatch.setattr(KnowledgeBase, "_build_corpus", lambda kb: calls.append("build") or real_build(kb))
    monkeypatch.setattr(KnowledgeBase, "_search", lambda kb, token: calls.append(token) or real_search(kb, token))
    return calls


def write_kb(directory, files: dict[str, str]) -> None:
    directory.mkdir(exist_ok=True)
    for path in directory.glob("*.txt"):
        if path.stem not in files:
            path.unlink()
    for stem, text in files.items():
        (directory / f"{stem}.txt").write_text(text, encoding="utf-8")


def ranked(kb: KnowledgeBase, query: str, k: int = 9) -> list[tuple[str, str, float]]:
    return [(doc.id, doc.text, score) for doc, score in retrieve(kb, query, k)]


def reference_digest(directory: Path) -> bytes:
    """The documented digest, from whole-file reads: every file's bytes in
    name order, then each name and length, then the listing's length."""
    files = sorted(path for path in directory.iterdir() if path.name.endswith(".txt"))
    data = [path.read_bytes() for path in files]
    listing = os.fsencode("\0".join(f"{path.name}\0{len(body)}" for path, body in zip(files, data)))
    return hashlib.sha256(b"".join(data) + listing + len(listing).to_bytes(8, "big")).digest()


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


BUFFER = 1 << 16  # the reader's buffer size


class TestLoadKbDirReads:
    """Every file is read to its end through one reused buffer."""

    @pytest.mark.parametrize("size", [0, 1, BUFFER - 1, BUFFER, BUFFER + 1, 200_003])
    def test_sizes_around_the_buffer_read_whole_in_both_passes(self, tmp_path, loaded, size):
        body = bytes(b"abcdefghij \n"[i % 12] for i in range(size))
        (tmp_path / "big.txt").write_bytes(body)
        (tmp_path / "small.txt").write_bytes(b"after")
        kb = load_kb_dir("kb", tmp_path)
        assert kb.get("big").text == body.decode() and kb.get("small").text == "after"
        assert loaded["kb"][0] == reference_digest(tmp_path)
        assert load_kb_dir("kb", tmp_path)._index is kb._index  # the hash-only pass agrees
        (tmp_path / "big.txt").write_bytes(body + b"x")
        assert load_kb_dir("kb", tmp_path).get("big").text == body.decode() + "x"
        assert loaded["kb"][0] == reference_digest(tmp_path)

    @pytest.mark.parametrize("char", ["\u00e9", "\u20ac", "\U0001f600"])
    @pytest.mark.parametrize("boundary", [BUFFER, 2 * BUFFER])
    def test_character_split_across_the_buffer_boundary(self, tmp_path, loaded, char, boundary):
        text = "a" * (boundary - 1) + char + "tail"
        (tmp_path / "split.txt").write_text(text, encoding="utf-8")
        assert load_kb_dir("kb", tmp_path).get("split").text == text
        assert loaded["kb"][0] == reference_digest(tmp_path)

    def test_sub_directory_is_unreadable_in_the_hash_only_pass(self, tmp_path, loaded):
        write_kb(tmp_path, {"a": "slack", "y": "clock"})
        load_kb_dir("kb", tmp_path)
        (tmp_path / "x.txt").mkdir()
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert str(tmp_path / "x.txt") in str(exc.value)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("cached", [False, True], ids=["decoding", "hash-only"])
    def test_no_descriptor_left_open_after_an_unreadable_file(self, tmp_path, loaded, cached):
        write_kb(tmp_path, {"a": "slack", "z": "clock"})
        if cached:
            load_kb_dir("kb", tmp_path)
        (tmp_path / "m.txt").mkdir()
        before = open_fds()
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert open_fds() == before
        (tmp_path / "m.txt").rmdir()
        (tmp_path / "m.txt").write_bytes(b"\xff not utf-8")
        with pytest.raises(KnowledgeError):
            load_kb_dir("kb", tmp_path)
        assert open_fds() == before

    def test_directory_renamed_during_the_load_is_read_whole(self, tmp_path, loaded, monkeypatch):
        directory = tmp_path / "kb"
        write_kb(directory, {"a": "first", "b": "second"})
        real_open = os.open
        swapped = []

        def swap_then_open(path, *args, **kwargs):
            if str(path).endswith(".txt") and not swapped:  # the first file, after the listing
                swapped.append(directory.rename(tmp_path / "moved"))
                write_kb(directory, {"a": "other", "b": "other"})
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", swap_then_open)
        kb = load_kb_dir("kb", directory)
        assert swapped
        assert [kb.get(doc_id).text for doc_id in kb.ids()] == ["first", "second"]


class TestLoadKbDirReuse:
    """A load of byte-identical files shares the last build under its name."""

    def test_unchanged_directory_shares_corpus_and_postings_not_parsed(self, tmp_path, loaded, searches):
        write_kb(tmp_path, {"a": "slack margin", "b": "slack slack clock"})
        first = load_kb_dir("kb", tmp_path)
        assert ranked(first, "slack") == [("b", "slack slack clock", 2.0), ("a", "slack margin", 1.0)]
        assert first.parse_once("a", str.upper) == "SLACK MARGIN"
        assert searches == ["slack", "build"]
        second = load_kb_dir("kb", tmp_path)
        assert second is not first and second.parsed == {} and first.parsed == {"a": "SLACK MARGIN"}
        assert ranked(second, "slack") == ranked(first, "slack")
        assert ranked(second, "clock") == [("b", "slack slack clock", math.log(3 / 2) + 1.0)]
        assert searches == ["slack", "build", "clock"]  # no second build, no second "slack"
        assert ranked(first, "clock") == ranked(second, "clock") and searches[-1] == "clock"
        assert len(loaded) == 1

    def test_same_size_rewrite_with_mtime_restored_rebuilds(self, tmp_path, loaded, searches):
        write_kb(tmp_path, {"a": "slack one", "b": "clock two"})
        assert [doc_id for doc_id, _, _ in ranked(load_kb_dir("kb", tmp_path), "slack")] == ["a"]
        path = tmp_path / "a.txt"
        before = os.stat(path)
        path.write_text("clock one", encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size and os.stat(path).st_mtime_ns == before.st_mtime_ns
        kb = load_kb_dir("kb", tmp_path)
        assert kb.get("a").text == "clock one"
        assert ranked(kb, "slack") == []
        assert [doc_id for doc_id, _, _ in ranked(kb, "clock")] == ["a", "b"]
        assert searches == ["slack", "build", "slack", "build", "clock"]

    @pytest.mark.parametrize(
        "edit, ids",
        [
            (lambda d: (d / "c.txt").write_text("slack three", encoding="utf-8"), ["a", "b", "c"]),
            (lambda d: (d / "b.txt").unlink(), ["a"]),
            (lambda d: (d / "b.txt").rename(d / "c.txt"), ["a", "c"]),
            (lambda d: (d / "b.txt").rename(d / "b.md"), ["a"]),
        ],
        ids=["added", "removed", "renamed", "renamed-away"],
    )
    def test_listing_change_rebuilds(self, tmp_path, loaded, searches, edit, ids):
        write_kb(tmp_path, {"a": "slack one", "b": "slack two"})
        assert len(ranked(load_kb_dir("kb", tmp_path), "slack")) == 2
        edit(tmp_path)
        kb = load_kb_dir("kb", tmp_path)
        assert kb.ids() == ids
        assert [doc_id for doc_id, _, _ in ranked(kb, "slack")] == ids
        assert searches == ["slack", "build"] * 2

    def test_bytes_moved_across_a_file_boundary_never_share(self, tmp_path, loaded, searches):
        write_kb(tmp_path, {"a": "ab", "b": "c"})
        assert ranked(load_kb_dir("kb", tmp_path), "ab") == [("a", "ab", math.log(3 / 2) + 1.0)]
        write_kb(tmp_path, {"a": "a", "b": "bc"})
        kb = load_kb_dir("kb", tmp_path)
        assert [kb.get("a").text, kb.get("b").text] == ["a", "bc"]
        assert ranked(kb, "ab") == []
        assert searches == ["ab", "build"] * 2

    def test_same_bytes_under_another_name_carry_that_name(self, tmp_path, loaded):
        write_kb(tmp_path, {"a": "slack"})
        assert [load_kb_dir(name, tmp_path).name for name in ("one", "two", "one", "two")] == ["one", "two"] * 2
        assert sorted(loaded) == ["one", "two"]

    def test_file_turned_non_utf8_after_a_cached_load_is_unreadable(self, tmp_path, loaded):
        write_kb(tmp_path, {"a": "slack", "bad": "fine"})
        retrieve(load_kb_dir("kb", tmp_path), "slack", k=1)
        (tmp_path / "bad.txt").write_bytes(b"\xff\xfe")
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert str(tmp_path / "bad.txt") in str(exc.value)

    def test_several_directories_under_one_name_keep_one_entry(self, tmp_path, loaded, searches):
        dirs = [tmp_path / name for name in ("x", "y", "z")]
        for i, directory in enumerate(dirs):
            write_kb(directory, {"a": "slack " * (i + 1)})
            assert ranked(load_kb_dir("kb", directory), "slack")[0][0] == "a"
        assert list(loaded) == ["kb"]
        assert ranked(load_kb_dir("kb", dirs[-1]), "slack")[0][0] == "a"  # the last build is the one kept
        assert searches == ["slack", "build"] * 3

    def test_concurrent_loads_share_one_build_and_rank_as_the_oracle(self, tmp_path, loaded, searches):
        docs = {f"d{i}": " ".join(DOC_WORDS[(i * j) % len(DOC_WORDS)] for j in range(i + 3)) for i in range(40)}
        write_kb(tmp_path, docs)
        load_kb_dir("kb", tmp_path)  # the build the threads share
        queries = [" ".join(QUERY_WORDS[i:i + 3]) for i in range(8)]
        start = threading.Barrier(len(queries))
        results: dict[str, list] = {}

        def load_and_query(text):
            start.wait(timeout=10)
            kb = load_kb_dir("kb", tmp_path)
            results[text] = [(doc.id, score) for doc, score in retrieve(kb, text, k=5)]

        threads = [threading.Thread(target=load_and_query, args=(text,)) for text in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {text: tfidf_rank(docs, text, 5) for text in queries}
        assert searches.count("build") == 1
        assert sorted(token for token in searches if token != "build") == sorted({token for text in queries for token in tokenize(text)})

    @settings(max_examples=200, deadline=None)
    @given(
        states=st.lists(
            st.dictionaries(st.sampled_from("abcd"), st.text(alphabet="ab \n\u0130", max_size=6), max_size=4),
            min_size=1, max_size=3,
        ),
        order=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
    )
    def test_reused_retrieval_equals_a_fresh_build(self, states, order):
        marco.knowledge._LOADED.pop("reuse", None)
        with tempfile.TemporaryDirectory() as root:
            directory = Path(root) / "kb"
            for step in order:
                files = states[step % len(states)]
                write_kb(directory, files)
                kb = load_kb_dir("reuse", directory)
                fresh = KnowledgeBase("reuse", [Document(stem, files[stem]) for stem in sorted(files)])
                assert [kb.get(doc_id) for doc_id in kb.ids()] == [fresh.get(doc_id) for doc_id in fresh.ids()]
                for query in ("a", "b ab", "ba a", "i ab i"):
                    assert ranked(kb, query) == ranked(fresh, query)
                assert kb.parsed == {}
                if len(kb):
                    kb.parse_once(kb.ids()[0], len)  # kept on this load's knowledge base only


def msg(role: str, content: str) -> ChatMessage:
    return ChatMessage(role=role, content=content)


class TestMemoryWindow:
    def test_under_limit_unchanged(self):
        messages = [msg("system", "s"), msg("user", "u"), msg("assistant", "a")]
        assert apply_window(messages, MemoryWindow(max_messages=10)) == messages

    def test_system_pinned_rest_trimmed(self):
        messages = [msg("system", "s")] + [msg("user", f"u{i}") for i in range(9)]
        trimmed = apply_window(messages, MemoryWindow(max_messages=4))
        assert trimmed == [messages[0]] + messages[-3:]

    def test_idempotent(self):
        messages = [msg("system", "s")] + [msg("user", f"u{i}") for i in range(9)]
        window = MemoryWindow(max_messages=4)
        once = apply_window(messages, window)
        assert apply_window(once, window) == once

    def test_no_system_keeps_tail(self):
        messages = [msg("user", f"u{i}") for i in range(5)]
        assert apply_window(messages, MemoryWindow(max_messages=2)) == messages[-2:]

    def test_window_of_one_keeps_system_only(self):
        messages = [msg("system", "s"), msg("user", "u1"), msg("user", "u2")]
        assert apply_window(messages, MemoryWindow(max_messages=1)) == [messages[0]]

    def test_window_needs_a_message(self):
        with pytest.raises(ValueError):
            MemoryWindow(max_messages=0)

    @settings(max_examples=60, deadline=None)
    @given(
        with_system=st.booleans(),
        body=st.lists(st.sampled_from(["user", "assistant"]), max_size=12),
        max_messages=st.integers(min_value=1, max_value=12),
    )
    def test_bounded_ordered_idempotent(self, with_system, body, max_messages):
        messages = [msg("system", "s")] if with_system else []
        messages += [msg(role, f"m{i}") for i, role in enumerate(body)]
        window = MemoryWindow(max_messages=max_messages)
        out = apply_window(messages, window)
        assert len(out) <= max_messages
        positions = [messages.index(m) for m in out]
        assert positions == sorted(positions)
        assert apply_window(out, window) == out

    def test_tool_round_evicted_as_a_unit(self):
        call = ToolCallRequest(id="c1", tool_name="t")
        messages = [
            msg("system", "s"),
            msg("user", "u"),
            ChatMessage(role="assistant", tool_calls=(call,)),
            ChatMessage(role="tool", content="r", tool_call_id="c1"),
            msg("assistant", "a"),
        ]
        assert apply_window(messages, MemoryWindow(max_messages=3)) == [messages[0], messages[4]]
        assert apply_window(messages, MemoryWindow(max_messages=4)) == [messages[0]] + messages[2:]

    @settings(max_examples=200, deadline=None)
    @given(
        with_system=st.booleans(),
        body=st.lists(st.one_of(st.sampled_from(["user", "assistant"]), st.integers(1, 3)), max_size=10),
        max_messages=st.integers(min_value=1, max_value=12),
    )
    def test_no_orphan_tool_reply(self, with_system, body, max_messages):
        """An integer in ``body`` is a tool round: an assistant message
        requesting that many calls, then one tool reply per call."""
        messages = [msg("system", "s")] if with_system else []
        for i, part in enumerate(body):
            if isinstance(part, str):
                messages.append(msg(part, f"m{i}"))
                continue
            calls = tuple(ToolCallRequest(id=f"c{i}_{j}", tool_name="t") for j in range(part))
            messages.append(ChatMessage(role="assistant", content=f"m{i}", tool_calls=calls))
            messages += [ChatMessage(role="tool", content=f"r{i}_{j}", tool_call_id=c.id) for j, c in enumerate(calls)]
        window = MemoryWindow(max_messages=max_messages)
        out = apply_window(messages, window)
        assert len(out) <= max_messages
        requested = set()
        for message in out:
            requested.update(c.id for c in message.tool_calls)
            if message.role == "tool":
                assert message.tool_call_id in requested
        assert apply_window(out, window) == out
