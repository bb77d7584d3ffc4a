"""Every section of ``benchmarks/paper/run.py`` holds its paper shape.

Each section prints one table or figure of the paper from the model and
asserts the qualitative shape the paper reports; a section that raises is
a shape the model no longer reproduces.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

RUNNER = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "run.py")

_spec = importlib.util.spec_from_file_location("paper_run", RUNNER)
paper_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paper_run)


@pytest.mark.parametrize("section", paper_run.SECTIONS,
                         ids=lambda section: section.__name__)
def test_section_holds_its_shape(section, capsys):
    section()
    assert capsys.readouterr().out.strip()


def test_runner_covers_tables_vi_to_xi_and_the_figures():
    names = {section.__name__.split("_")[0] for section in paper_run.SECTIONS}
    assert names == {"table06", "table07", "table08", "table09", "table10",
                     "table11", "fig04", "fig05", "fig10", "fig11", "fig12",
                     "fig13", "fig14", "fig15"}


def test_script_exits_zero():
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    result = subprocess.run([sys.executable, RUNNER], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Table VI" in result.stdout
