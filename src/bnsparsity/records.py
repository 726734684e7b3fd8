"""Serialization shared by the result records: a record's JSON layout is its
dataclass fields in declaration order."""

from __future__ import annotations

import json
from dataclasses import fields


class Record:
    """Mixin for dataclass records."""

    def to_dict(self) -> dict:
        # not dataclasses.asdict, which deep-copies every value
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
