"""tools/mutants.py: its list stays applicable, and a stale entry or one
that does not compile fails it."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


@pytest.fixture
def mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_listed_mutation_applies_exactly_once(mutants):
    assert mutants.check(mutants.MUTATIONS) == []
    names = [m.name for m in mutants.MUTATIONS]
    assert len(set(names)) == len(names)
    assert all(m.old != m.new for m in mutants.MUTATIONS)


def test_an_old_text_not_found_once_fails_before_any_run(mutants, capsys,
                                                         monkeypatch):
    def run(m):
        raise AssertionError("no mutant may run")

    monkeypatch.setattr(mutants, "run", run)
    for name, old in (("gone", "no such text in the kernel"),
                      ("twice", "return")):
        bad = mutants.Mutation(name, "series.py", old, "pass")
        assert mutants.main([*mutants.MUTATIONS, bad]) == 1
        assert capsys.readouterr().out.startswith(f"{name}: old text found")


def test_a_mutant_that_does_not_compile_fails_before_any_run(mutants, capsys,
                                                            monkeypatch):
    # a syntax error would kill the mutant in every run, whatever the tests
    def run(m):
        raise AssertionError("no mutant may run")

    monkeypatch.setattr(mutants, "run", run)
    bad = mutants.Mutation("broken", "support.py", "heads[i] = p\n",
                           "heads[i] = (p\n")
    assert mutants.main([*mutants.MUTATIONS, bad]) == 1
    assert capsys.readouterr().out.startswith(
        "broken: mutated support.py does not compile")
