"""Child processes of the benchmark, one at a time; the client is ``run.py``.

    child.py setup AMBIENT...        import weylspecht, build each root system
                                     and generate its Weyl group, then exit
    child.py serve TRACE AMBIENT...  the same set-up, then answer one library
                                     operation per stdin line with one JSON
                                     line on stdout
    child.py cli ARG...              run weylspecht.cli.main(ARGs) with the
                                     tracer on, print {rc, sha256, bytes, spans}

The library worker reuses one generated group per ambient across its
operations, as ``scripts/showcase.py`` does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
import warnings
from time import perf_counter

import weylspecht
from weylspecht.exactlin import field_by_name

from workloads import PAIRS


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Worker:
    """Runs library operations against groups generated once at start."""

    def __init__(self, ambients):
        self.systems = {}
        self.groups = {}
        for label in ambients:
            system = weylspecht.build_root_system(label)
            self.systems[label] = system
            self.groups[label] = weylspecht.generate_group(system)
        self.modules = {}

    def _subsystem(self, system, text):
        return weylspecht.closure_from_simples(
            system, [weylspecht.parse_root(system, t) for t in text.split(",")]
        )

    def run(self, op: dict):
        """Run one operation; return its canonical result."""
        pair, field = op["pair"], op["field"]
        ambient, j, jp = PAIRS[pair]
        system = self.systems[ambient]
        kind = op["kind"]
        if kind == "build":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                module = weylspecht.build_specht_module(
                    system,
                    self._subsystem(system, j),
                    self._subsystem(system, jp),
                    field_by_name(field),
                    group=self.groups[ambient],
                )
            dims = weylspecht.quotient_dimension(module)
            self.modules[(pair, field)] = module
            return {"dims": list(dims), "tabloids": module.tabloid_count, "generators": len(module.generators)}
        module = self.modules[(pair, field)]
        if kind == "chars":
            fld = module.field
            out = []
            for i in range(1, system.rank + 1):
                s = weylspecht.simple_reflection(system, i)
                matrix = weylspecht.matrix_of(module, s)
                trace = weylspecht.character_value(module, s)
                out.append([[[fld.format(x) for x in row] for row in matrix], fld.format(trace)])
            return {"traces": [t for _, t in out], "matrices_sha256": _digest([m for m, _ in out])}
        if kind == "norm":
            return {"norm": str(weylspecht.character_norm(module))}
        if kind == "probe":
            report = weylspecht.submodule_theorem_probe(module, trials=1, seed=op["seed"])
            return {"violations": list(report.violations)}
        raise ValueError(f"unknown operation kind {kind!r}")


def serve(trace: bool, ambients) -> None:
    worker = Worker(ambients)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    out.write(json.dumps({"ready": True, "absent": tracer.absent if tracer else []}) + "\n")
    out.flush()
    for line in sys.stdin:
        op = json.loads(line)
        t0 = perf_counter()
        try:
            reply = {"result": worker.run(op)}
        except Exception:
            reply = {"error": traceback.format_exc()}
        reply["seconds"] = perf_counter() - t0
        if tracer:
            reply["spans"] = tracer.take()
        out.write(json.dumps(reply) + "\n")
        out.flush()


def traced_cli(argv) -> None:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import weylspecht.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = weylspecht.cli.main(argv)
    data = buf.getvalue().encode()
    json.dump(
        {
            "rc": rc,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "spans": tracer.take(),
            "absent": tracer.absent,
        },
        sys.stdout,
    )


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        Worker(rest)
    elif mode == "serve":
        serve(rest[0] == "1", rest[1:])
    elif mode == "cli":
        traced_cli(rest)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
