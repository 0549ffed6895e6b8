"""Time one fresh-process set-up: ``import starkcomb`` plus loading configs.

Usage: python3 setup_probe.py <src-dir> <scenarios|cli> [config.yaml ...]

With config paths it loads each one; without, it builds the bundled default
config, the base every CLI run merges its file over. Prints the set-up
seconds and then the median of three speed-kernel times taken right after.
"""

import statistics
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    src, entry, *configs = sys.argv[1:]
    sys.path.insert(0, src)
    import starkcomb.config

    if entry == "cli":
        import starkcomb.cli  # noqa: F401
    if configs:
        for path in configs:
            starkcomb.config.load_config(path)
    else:
        starkcomb.config.default_config()
    elapsed = time.perf_counter() - t0

    from run import kernel_seconds  # the harness's speed kernel, beside this file

    print(repr(elapsed), repr(statistics.median(kernel_seconds() for _ in range(3))))


if __name__ == "__main__":
    main()
