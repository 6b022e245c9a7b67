"""Print the seconds a fresh interpreter takes to import smoothlab and parse
the experiment configs given as arguments (the benchmark's set-up): raw,
then at reference speed."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(paths: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from reference import Reference  # pure Python: imports no numpy
    with Reference().timed() as stretch:
        import smoothlab.cli  # noqa: F401  (the CLI pulls in every layer)
        from smoothlab.harness import ExperimentConfig
        for path in paths:
            ExperimentConfig.from_json(Path(path).read_text())
    print(stretch.raw, stretch.scaled)


if __name__ == "__main__":
    main(sys.argv[1:])
