"""Access to the bundled example games and proof corpus."""

from importlib import resources


def asset_path(name: str):
    """Traversable path of a bundled asset, e.g. 'truck_manual.game'."""
    return resources.files("blamelogic") / "assets" / name

