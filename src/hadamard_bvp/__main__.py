"""``python -m hadamard_bvp``: the `hbvp` command line, entered through
`cli.run`, which ends the process without interpreter teardown."""

from .cli import run

if __name__ == "__main__":
    run()
