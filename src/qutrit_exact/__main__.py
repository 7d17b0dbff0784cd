"""``python -m qutrit_exact``: the ``qutrit-exact`` command."""

from qutrit_exact.cli.main import entrypoint

if __name__ == "__main__":
    entrypoint()
