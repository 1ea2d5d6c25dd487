"""Property tests for the seeded mutation operators.

Two invariants carry the coverage search's reproducibility and safety
story: *determinism* — the same derived RNG stream produces the same
mutant, in this process or any other — and *legality* — every mutant
is built exclusively from post-cleanup legal instructions and keeps
the :class:`Gadget` shape invariants (non-empty trigger, sequence
lengths within the cap), so mutants satisfy ``repro.isa.legality`` by
construction.
"""

import hashlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fuzzer.campaign import default_cleanup
from repro.core.fuzzer.grammar import Gadget
from repro.isa.catalog import shared_catalog
from repro.isa.legality import MICROARCH_PROFILES, LegalityTester
from repro.search.engine import mutation_stream
from repro.search.mutators import COLD_POOL_BIAS, GadgetMutator

MICROARCH = "amd-epyc-7252"
MAX_LEN = 3

LEGAL = default_cleanup(MICROARCH).legal
MUTATOR = GadgetMutator(LEGAL, max_sequence_length=MAX_LEN)


def names(gadget: Gadget) -> tuple:
    return (tuple(s.name for s in gadget.reset),
            tuple(s.name for s in gadget.trigger))


@st.composite
def parent_gadgets(draw):
    index = st.integers(min_value=0, max_value=len(LEGAL) - 1)
    reset = draw(st.lists(index, max_size=MAX_LEN))
    trigger = draw(st.lists(index, min_size=1, max_size=MAX_LEN))
    return Gadget(reset=tuple(LEGAL[i] for i in reset),
                  trigger=tuple(LEGAL[i] for i in trigger))


mutation_labels = st.tuples(
    st.integers(min_value=0, max_value=2 ** 31 - 1),  # entropy
    st.integers(min_value=0, max_value=500),          # round
    st.integers(min_value=0, max_value=63),           # child
)


def _mutate_names_in_subprocess(parent_names, labels, cold):
    """Worker-side re-derivation: rebuild everything from plain data."""
    legal = default_cleanup(MICROARCH).legal
    by_name = {spec.name: spec for spec in legal}
    mutator = GadgetMutator(legal, max_sequence_length=MAX_LEN)
    parent = Gadget(
        reset=tuple(by_name[n] for n in parent_names[0]),
        trigger=tuple(by_name[n] for n in parent_names[1]))
    entropy, round_index, child = labels
    stream = mutation_stream(entropy, round_index, parent_names[1][0],
                             child)
    cold_specs = tuple(by_name[n] for n in cold)
    reset, trigger = names(mutator.mutate(parent, stream,
                                          cold=cold_specs))
    return (tuple(reset), tuple(trigger))


class TestDeterminism:
    @given(parent=parent_gadgets(), labels=mutation_labels)
    @settings(max_examples=150, deadline=None)
    def test_same_stream_same_mutant(self, parent, labels):
        entropy, round_index, child = labels
        digest = parent.trigger[0].name
        first = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest, child))
        second = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest, child))
        assert names(first) == names(second)

    @given(parent=parent_gadgets(), labels=mutation_labels)
    @settings(max_examples=50, deadline=None)
    def test_sibling_streams_are_independent(self, parent, labels):
        # A different child index must not perturb this child's draw.
        entropy, round_index, child = labels
        digest = parent.trigger[0].name
        alone = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest, child))
        sibling_first = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest,
                                    child + 1))
        again = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest, child))
        assert names(alone) == names(again)
        del sibling_first

    def test_identical_mutants_across_processes(self):
        cold = tuple(sorted(spec.name for spec in LEGAL[:5]))
        cases = []
        for child in range(8):
            parent = Gadget(reset=(LEGAL[child],),
                            trigger=(LEGAL[2 * child + 1], LEGAL[40 + child]))
            cases.append((names(parent), (11, 3, child), cold))
        local = [_mutate_names_in_subprocess(*case) for case in cases]
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(_mutate_names_in_subprocess,
                                   *zip(*cases)))
        assert local == remote


class TestLegality:
    @classmethod
    def setup_class(cls):
        cls.tester = LegalityTester(shared_catalog(),
                                    MICROARCH_PROFILES[MICROARCH])
        cls.legal_names = {spec.name for spec in LEGAL}

    @given(parent=parent_gadgets(), labels=mutation_labels)
    @settings(max_examples=150, deadline=None)
    def test_mutants_are_legal_and_well_formed(self, parent, labels):
        entropy, round_index, child = labels
        stream = mutation_stream(entropy, round_index,
                                 parent.trigger[0].name, child)
        cold = LEGAL[:3] if entropy % 2 else ()
        mutant = MUTATOR.mutate(parent, stream, cold=cold)
        assert 1 <= len(mutant.trigger) <= MAX_LEN
        assert len(mutant.reset) <= MAX_LEN
        for spec in mutant.reset + mutant.trigger:
            assert spec.name in self.legal_names
            assert self.tester.is_legal(spec)

    @given(labels=mutation_labels)
    @settings(max_examples=30, deadline=None)
    def test_cold_pool_draws_stay_legal(self, labels):
        entropy, round_index, child = labels
        parent = Gadget(reset=(), trigger=(LEGAL[0],))
        stream = mutation_stream(entropy, round_index, LEGAL[0].name,
                                 child)
        cold = tuple(LEGAL[-10:])
        mutant = MUTATOR.mutate(parent, stream, cold=cold)
        for spec in mutant.reset + mutant.trigger:
            assert self.tester.is_legal(spec)
        assert 0.0 < COLD_POOL_BIAS < 1.0


# -- extension-preserving substitution -----------------------------------


def reference_substitute(self, reset, trigger, rng, cold):
    """The list-comprehension ``_substitute`` the group table replaced."""
    total = len(reset) + len(trigger)
    index = int(rng.integers(total))
    side, offset = ((reset, index) if index < len(reset)
                    else (trigger, index - len(reset)))
    current = side[offset]
    group = [spec for spec in self._by_extension[current.extension]
             if spec.name != current.name]
    if not group:
        self._swap(reset, trigger, rng, cold)
        return
    side[offset] = group[int(rng.integers(len(group)))]


class ReferenceMutator(GadgetMutator):
    _substitute = reference_substitute


def _one_member_legal():
    """LEGAL minus one variant of a two-member extension."""
    sizes = Counter(spec.extension for spec in LEGAL)
    pair = min(ext for ext, n in sizes.items() if n == 2)
    dropped = sorted(s.name for s in LEGAL if s.extension == pair)[0]
    legal = tuple(s for s in LEGAL if s.name != dropped)
    lone = next(s for s in legal if s.extension == pair)
    return legal, lone


def mutant_digest(mutator, count=200) -> str:
    """SHA-256 over ``count`` seeded mutants of deterministic parents."""
    legal = mutator.legal
    cold = tuple(legal[-7:])
    h = hashlib.sha256()
    for i in range(count):
        parent = Gadget(
            reset=tuple(legal[(37 * i + 11 * k) % len(legal)]
                        for k in range(i % 3)),
            trigger=tuple(legal[(101 * i + 7 * k) % len(legal)]
                          for k in range(1 + i % 3)))
        stream = mutation_stream(23, i // 8, parent.trigger[0].name, i % 8)
        mutant = mutator.mutate(parent, stream, cold=cold if i % 2 else ())
        h.update(repr(names(mutant)).encode())
    return h.hexdigest()


#: ``mutant_digest(MUTATOR)`` under the list-comprehension substitution.
PINNED_MUTANT_DIGEST = ("755e4e013fade81710126dc275883e79"
                        "d152b3d84049228e3da1a30a20a9e405")


class TestSubstitution:
    @classmethod
    def setup_class(cls):
        cls.one_legal, cls.lone = _one_member_legal()
        rng = np.random.default_rng(2024)
        cls.parents = []
        for i in range(50):
            legal = cls.one_legal
            picks = [legal[int(j)] for j in rng.integers(len(legal), size=6)]
            if i % 5 == 0:
                picks[3] = cls.lone
            reset = tuple(picks[:int(rng.integers(MAX_LEN + 1))])
            trigger = tuple(picks[3:4 + int(rng.integers(MAX_LEN))])
            cls.parents.append(Gadget(reset=reset, trigger=trigger))

    def test_substitute_draws_match_the_reference(self):
        for legal in (LEGAL, self.one_legal):
            fast = GadgetMutator(legal, max_sequence_length=MAX_LEN)
            reference = ReferenceMutator(legal, max_sequence_length=MAX_LEN)
            cold = tuple(legal[:4])
            for p, parent in enumerate(self.parents):
                for child in range(20):
                    sides = []
                    for mutator in (fast, reference):
                        stream = mutation_stream(5, 0, f"p{p}", child)
                        reset, trigger = (list(parent.reset),
                                          list(parent.trigger))
                        mutator._substitute(reset, trigger, stream, cold)
                        sides.append(([s.name for s in reset],
                                      [s.name for s in trigger],
                                      int(stream.integers(2 ** 63))))
                    assert sides[0] == sides[1]

    def test_mutants_match_the_reference(self):
        for legal in (LEGAL, self.one_legal):
            fast = GadgetMutator(legal, max_sequence_length=MAX_LEN)
            reference = ReferenceMutator(legal, max_sequence_length=MAX_LEN)
            for p, parent in enumerate(self.parents):
                for child in range(20):
                    mutants = [names(mutator.mutate(
                        parent, mutation_stream(9, 1, f"p{p}", child),
                        cold=tuple(legal[-5:]) if child % 2 else ()))
                        for mutator in (fast, reference)]
                    assert mutants[0] == mutants[1]

    def test_one_member_extension_falls_back_to_swap(self):
        mutator = GadgetMutator(self.one_legal, max_sequence_length=MAX_LEN)
        for child in range(20):
            outcomes = []
            for operator in (mutator._substitute, mutator._swap):
                reset, trigger = [], [self.lone]
                operator(reset, trigger,
                         mutation_stream(3, 0, "lone", child), ())
                outcomes.append([s.name for s in trigger])
            assert outcomes[0] == outcomes[1]

    def test_mutant_digest_is_pinned(self):
        assert mutant_digest(MUTATOR) == PINNED_MUTANT_DIGEST
        assert mutant_digest(ReferenceMutator(
            LEGAL, max_sequence_length=MAX_LEN)) == PINNED_MUTANT_DIGEST
