"""Multi-image records from single-image and image-pair corpora: the two
blend procedures (``concat_blend``, grouped as a ``BlendSpec`` says, and
``llava_otter_blend``), the admission filter on image count and length
(``filter_limits``, which takes its own limits), corpus stats and
JSON-lines IO."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .modseq import LayoutConfig, _check_int
from .template import Conversation, OverLengthError, Round, count_tokens


class Dataset(str, Enum):
    LLAVA = "llava"
    LLAVA_DIAL = "llava_dial"
    OTTER_CGD = "otter_cgd"
    OTHER = "other"


@dataclass(frozen=True)
class SourceRecord:
    """One corpus record: a conversation plus the image ids it uses.

    ``dataset`` may be given as its value (``"llava"``). Single-image
    corpora (llava, llava_dial) carry exactly one image id; the image-pair
    corpus (otter_cgd) carries exactly two. The ids referenced by the
    conversation's rounds must be exactly the record's image ids.
    """

    dataset: Dataset
    image_ids: tuple[str, ...]
    conversation: Conversation

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "dataset", Dataset(self.dataset))
        except ValueError:
            names = ", ".join(dataset.value for dataset in Dataset)
            raise ValueError(f"dataset must be one of {names}, got {self.dataset!r}") from None
        object.__setattr__(self, "image_ids", tuple(self.image_ids))
        if self.dataset in (Dataset.LLAVA, Dataset.LLAVA_DIAL):
            if len(self.image_ids) != 1:
                raise ValueError(f"{self.dataset.value} records carry exactly 1 image id")
        elif self.dataset is Dataset.OTTER_CGD:
            if len(self.image_ids) != 2:
                raise ValueError("otter_cgd records carry exactly 2 image ids")
        if len(set(self.image_ids)) != len(self.image_ids):
            raise ValueError("record image ids must be distinct")
        introduced = set(self.conversation.image_ids())
        if introduced != set(self.image_ids):
            raise ValueError("conversation rounds must introduce exactly the record's image ids")


@dataclass(frozen=True)
class BlendSpec:
    """``concat_blend``'s group-size range and shuffle seed. ``max_group``
    stays below 2**63, the bound of the generator's int64 draws."""

    min_group: int
    max_group: int
    seed: int

    def __post_init__(self) -> None:
        _check_int("min_group", self.min_group)
        _check_int("max_group", self.max_group)
        _check_int("seed", self.seed, minimum=0)
        if self.min_group > self.max_group:
            raise ValueError("need 1 <= min_group <= max_group")
        if self.max_group >= 2**63:
            raise ValueError(f"max_group must be below 2**63, got {self.max_group!r}")


def _merge_group(group: list[SourceRecord]) -> SourceRecord:
    """Concatenate a group's conversations; image ids are renumbered
    globally ("1", "2", ...) so merged records never alias each other's
    images. Size-1 groups pass through untouched."""
    if len(group) == 1:
        return group[0]
    counter = 0
    new_ids: list[str] = []
    rounds: list[Round] = []
    for record in group:
        remap: dict[str, str] = {}
        for old in record.image_ids:
            counter += 1
            remap[old] = str(counter)
            new_ids.append(str(counter))
        for rnd in record.conversation.rounds:
            rounds.append(
                Round(
                    images=tuple(remap[i] for i in rnd.images),
                    question=rnd.question,
                    answer=rnd.answer,
                )
            )
    conv = Conversation(system=group[0].conversation.system, rounds=tuple(rounds))
    return SourceRecord(Dataset.OTHER, tuple(new_ids), conv)


def concat_blend(records: list[SourceRecord], spec: BlendSpec) -> list[SourceRecord]:
    """Shuffle the records with a generator seeded by ``spec.seed``, then cut
    them into groups whose sizes are drawn uniformly from [min_group,
    max_group] and merge each group round by round into one record. Every
    input record lands in exactly one output record; a trailing group
    smaller than min_group is kept."""
    if not records:
        raise ValueError("concat_blend needs a non-empty record list")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    order = rng.permutation(len(records))
    shuffled = [records[i] for i in order]
    out: list[SourceRecord] = []
    pos = 0
    while pos < len(shuffled):
        size = int(rng.integers(spec.min_group, spec.max_group + 1))
        out.append(_merge_group(shuffled[pos : pos + size]))
        pos += size
    return out


def llava_otter_blend(
    llava: list[SourceRecord],
    llava_dial: list[SourceRecord],
    otter: list[SourceRecord],
) -> list[SourceRecord]:
    """Join single-image records onto image-pair records sharing an id.

    For each pair record (a, b): emit the matched single-image rounds for
    a, then for b (llava before llava_dial, each in input order), then the
    pair's own round, with images introduced once each and the record's
    image list kept as [a, b]. Matching is by image id, not consumption, so
    a single-image record may join several pairs; pairs with no match pass
    through unchanged. Raises ValueError, naming the argument, unless each
    record of the first two arguments carries exactly one image id and
    each record of the third is an image-pair record.
    """
    by_image: dict[str, list[SourceRecord]] = {}
    for argument, records in (("first argument (llava)", llava),
                              ("second argument (llava_dial)", llava_dial)):
        for record in records:
            if len(record.image_ids) != 1:
                raise ValueError(
                    f"{argument} must contain single-image records, got one with "
                    f"image ids {list(record.image_ids)}"
                )
            by_image.setdefault(record.image_ids[0], []).append(record)

    out: list[SourceRecord] = []
    for pair in otter:
        if pair.dataset is not Dataset.OTTER_CGD:
            raise ValueError("third argument must contain image-pair records")
        matches = [rec for image in pair.image_ids for rec in by_image.get(image, [])]
        if not matches:
            out.append(pair)
            continue
        introduced: set[str] = set()
        rounds: list[Round] = []

        def append_round(rnd: Round) -> None:
            fresh = tuple(i for i in rnd.images if i not in introduced)
            introduced.update(fresh)
            rounds.append(Round(fresh, rnd.question, rnd.answer))

        for rec in matches:
            for rnd in rec.conversation.rounds:
                append_round(rnd)
        for rnd in pair.conversation.rounds:
            append_round(rnd)
        conv = Conversation(system=matches[0].conversation.system, rounds=tuple(rounds))
        out.append(SourceRecord(Dataset.OTHER, pair.image_ids, conv))
    return out


def filter_limits(
    records: list[SourceRecord],
    max_images: int,
    layout: LayoutConfig,
    emit: Callable[[SourceRecord], object] | None = None,
) -> tuple[list[SourceRecord], dict[str, int]]:
    """Drop records with more than ``max_images`` images or more than
    ``layout.max_sequence_length`` tokens; return the kept records and
    per-reason drop counts. Without ``emit`` the length test is
    ``count_tokens`` and nothing is rendered. With ``emit``, each record
    under the image limit is passed to ``emit`` in order to be rendered,
    and one for which it raises ``OverLengthError`` (as ``render`` does
    under ``layout``) is dropped as over-long. Idempotent: the kept list
    passes untouched."""
    _check_int("max_images", max_images)
    kept: list[SourceRecord] = []
    dropped = {"too_many_images": 0, "over_length": 0}
    for record in records:
        if len(record.image_ids) > max_images:
            dropped["too_many_images"] += 1
            continue
        try:
            if emit is not None:
                emit(record)
            elif count_tokens(record.conversation, layout) > layout.max_sequence_length:
                raise OverLengthError
        except OverLengthError:
            dropped["over_length"] += 1
            continue
        kept.append(record)
    return kept, dropped


def dataset_stats(records: list[SourceRecord]) -> dict:
    """Per-dataset sample counts plus image- and round-count histograms."""
    per_dataset = Counter(r.dataset.value for r in records)
    image_hist = Counter(len(r.image_ids) for r in records)
    round_hist = Counter(len(r.conversation.rounds) for r in records)
    return {
        "total": len(records),
        "per_dataset": dict(sorted(per_dataset.items())),
        "image_count_hist": dict(sorted(image_hist.items())),
        "round_count_hist": dict(sorted(round_hist.items())),
    }


# ---------------------------------------------------------------------------
# JSON-lines serialization


def record_to_dict(record: SourceRecord) -> dict:
    return {
        "dataset": record.dataset.value,
        "image_ids": list(record.image_ids),
        "system": record.conversation.system,
        "rounds": [
            {"images": list(r.images), "question": r.question, "answer": r.answer}
            for r in record.conversation.rounds
        ],
    }


# JSON's name for each type ``json.loads`` returns
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}

_RECORD_KEYS = ("dataset", "image_ids", "system", "rounds")
_ROUND_KEYS = ("images", "question", "answer")
_RECORD_FIELDS, _ROUND_FIELDS = itemgetter(*_RECORD_KEYS), itemgetter(*_ROUND_KEYS)

# What an undecodable byte becomes under the ``surrogateescape`` error handler
_UNDECODED = re.compile("[\udc80-\udcff]")


def _json_type(value: object) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _field_error(data: object) -> str:
    """The first field of ``data`` that is missing or not of its JSON type
    (the record and each round are objects, ``rounds`` is an array)."""
    if not isinstance(data, dict):
        return f"record must be a JSON object, got {_json_type(data)}"
    for key in _RECORD_KEYS:
        if key not in data:
            return f"{key} is missing"
    if not isinstance(data["rounds"], list):
        return f"rounds must be a JSON array, got {_json_type(data['rounds'])}"
    for index, value in enumerate(data["rounds"]):
        if not isinstance(value, dict):
            return f"rounds[{index}] must be a JSON object, got {_json_type(value)}"
        for key in _ROUND_KEYS:
            if key not in value:
                return f"rounds[{index}].{key} is missing"


def _fields(data: object) -> tuple:
    """(dataset, image_ids, system, [(images, question, answer) per round])
    of a record's JSON object; else a ValueError naming the field."""
    try:
        dataset, image_ids, system, rounds = _RECORD_FIELDS(data)
        if isinstance(rounds, list):
            return dataset, image_ids, system, list(map(_ROUND_FIELDS, rounds))
    except (KeyError, TypeError):
        pass
    raise ValueError(_field_error(data))


def _image_ids(value: object, key: str) -> tuple[str, ...]:
    """A JSON array of string or integer ids, as strings; else a ValueError."""
    if not isinstance(value, list) or not all(type(i) in (str, int) for i in value):
        raise ValueError(f"{key} must be a JSON array of strings or integers, got {value!r}")
    return tuple(str(i) for i in value)


def record_from_dict(data: dict) -> SourceRecord:
    """The record of one decoded JSON line; a ValueError names the field
    that is missing or has the wrong type."""
    dataset, image_ids, system, rounds = _fields(data)
    rounds = tuple(Round(_image_ids(images, "images"), question, answer) for images, question, answer in rounds)
    return SourceRecord(dataset, _image_ids(image_ids, "image_ids"), Conversation(system, rounds))


def read_records(path: str | Path) -> list[SourceRecord]:
    """Read a JSON-lines file of ``{dataset, image_ids, system, rounds:
    [{images, question, answer}]}`` records. A malformed line, nesting too
    deep to parse or a byte that is not UTF-8 included, is a ValueError
    carrying the path and the 1-based line number."""
    records: list[SourceRecord] = []
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                bad = None if line.isascii() else _UNDECODED.search(line)
                if bad:
                    raise ValueError(f"not valid UTF-8 (byte 0x{ord(bad.group()) - 0xDC00:02x})")
                records.append(record_from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: malformed record on line {number}: {exc}") from exc
    return records


def write_records(records: Iterable[SourceRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record), sort_keys=True))
            handle.write("\n")
