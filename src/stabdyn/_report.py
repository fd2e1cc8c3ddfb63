"""JSON encoding of the report dataclasses.

A Report's JSON keys are its field names.  A field whose default is None is
left out while it is None.  Classes whose keys differ from their field
names (IntMatrix, CentralCharge, StabilityData, AutoequivalenceData,
SpectralData, MetricSample) keep their own to_json: those keys are a public
format.
"""

from dataclasses import fields


def jsonable(value):
    """value with every object that has to_json encoded by it, tuples and
    lists as lists, and dicts entry by entry."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value


class Report:
    """Mixin for dataclasses whose JSON keys are their field names."""

    def to_json(self):
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                out[f.name] = jsonable(value)
        return out
