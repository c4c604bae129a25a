"""Traced stand-in for ``python -m segtriples``.

Usage: python cli_child.py TRACE_OUT ARGV...

Installs the span wrappers, counts enumeration-cache traffic under
SEGTRIPLES_CACHE_DIR through the interpreter's audit hook, runs
``segtriples.cli.main(ARGV)`` and writes the trace to TRACE_OUT.  Its
stdout and exit status are those of the command itself.
"""

import json
import os
import sys

import spans


class CacheAudit:
    """Cache files opened for reading or writing, seen from the outside:
    a read of a cache entry is a hit, a write without a read a miss."""

    def __init__(self, cache_dir):
        self.prefix = os.path.abspath(cache_dir) + os.sep if cache_dir else None
        self.bytes_read = 0
        self.reads = 0
        self.written = {}

    def _inside(self, path):
        if isinstance(path, int) or self.prefix is None:
            return None
        try:
            full = os.path.abspath(os.fsdecode(path))
        except (TypeError, ValueError):
            return None
        return full if full.startswith(self.prefix) else None

    def __call__(self, event, args):
        if event == "open":
            path, mode, flags = args
            full = self._inside(path)
            if full is None:
                return
            if isinstance(mode, str):
                writing = any(c in mode for c in "wax+")
            else:
                writing = bool(flags & (os.O_WRONLY | os.O_RDWR))
            if writing:
                self.written[full] = full
            elif os.path.isfile(full):
                self.reads += 1
                self.bytes_read += os.path.getsize(full)
        elif event == "os.rename":
            src, dst = self._inside(args[0]), self._inside(args[1])
            if src in self.written and dst is not None:
                self.written[src] = dst

    def counts(self):
        final = {dst for dst in self.written.values() if os.path.isfile(dst)}
        wrote = sum(os.path.getsize(p) for p in final)
        return {"cli.cache.hits": int(self.reads > 0),
                "cli.cache.misses": int(self.reads == 0 and bool(self.written)),
                "cli.cache.bytes_read": self.bytes_read,
                "cli.cache.bytes_written": wrote}


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import segtriples.cli

    tracer = spans.install(spans.Tracer())
    audit = CacheAudit(os.environ.get("SEGTRIPLES_CACHE_DIR"))
    sys.addaudithook(audit)
    code = 2
    tracer.active = True
    try:
        code = segtriples.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.active = False
        sys.stdout.flush()
        trace = tracer.snapshot()
        trace["counts"].update(audit.counts())
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
