"""Known-bad: the per-visit JSON record codecs back on the profile wire path."""

import repro.io.records_json
from repro.io import records_json as codecs
from repro.io.records_json import profile_from_dict, profile_to_dict


def encode_profiles(profiles):
    return [profile_to_dict(profile) for profile in profiles]


def decode_profiles(rows):
    return [profile_from_dict(row) for row in rows] + [repro.io.records_json, codecs]
