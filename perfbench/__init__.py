"""Build / serve / refresh benchmark for the aarhus_ray engine (see NOTES.md)."""
