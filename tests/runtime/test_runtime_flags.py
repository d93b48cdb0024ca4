"""Every ``--runtime`` flag rejects an unknown backend at parse time.

A bad spec is an argparse usage error (exit code 2) whose message names
the valid backends, raised before any model is fitted or loaded.  The
extraction chunks are derived, so no CLI takes ``--chunk-size``.
"""

import pytest

from repro.experiments.runner import main as experiments_main
from repro.runtime import runtime_argument
from repro.serve.cli import main as serve_main
from repro.shard.cli import main as shard_main
from repro.stream.cli import main as stream_main

#: One invocation per runtime flag, with the spec slot left as ``{}``.
_FLAGS = {
    "experiments": (experiments_main, ["table3", "--scale", "tiny", "--runtime", "{}"]),
    "serve": (serve_main, ["score", "--bundle", "missing", "--runtime", "{}"]),
    "stream": (stream_main, ["replay", "--runtime", "{}"]),
    "shard": (shard_main, ["replay", "--extract-runtime", "{}"]),
}


@pytest.mark.parametrize("spec", ["thread:2", "thread:x", "bogus", "process:0"])
@pytest.mark.parametrize("cli", sorted(_FLAGS))
def test_bad_runtime_spec_is_a_usage_error(cli, spec, capsys):
    main, argv = _FLAGS[cli]
    with pytest.raises(SystemExit) as excinfo:
        main([spec if arg == "{}" else arg for arg in argv])
    assert excinfo.value.code == 2
    error = capsys.readouterr().err
    assert "usage:" in error
    if spec != "process:0":
        assert "('serial', 'process')" in error


@pytest.mark.parametrize("spec", ["serial", "process", "process:2", " Process:4 "])
def test_valid_spec_passes_through_unchanged(spec):
    assert runtime_argument(spec) == spec


@pytest.mark.parametrize("cli", ["serve", "shard", "stream"])
def test_chunk_size_flag_is_a_usage_error(cli, capsys):
    main, argv = _FLAGS[cli]
    with pytest.raises(SystemExit) as excinfo:
        main(["serial" if arg == "{}" else arg for arg in argv] + ["--chunk-size", "3"])
    assert excinfo.value.code == 2
    assert "--chunk-size" in capsys.readouterr().err
