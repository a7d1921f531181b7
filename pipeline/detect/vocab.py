"""Closed vocabularies shared by the fixture generator and the detector.

The reference's PERSON/ORG/ADDRESS detection is *learned* from Faker's
open-ended vocabulary (pii_synth/generation.py:35-49). A deterministic
engine can't regex free-form names, so (per SURVEY.md §7.5.1) the fixture
generator draws from the closed lists below and the detector carries the
same lists as gazetteers. This is legitimate: the reference's "spec" is
likewise its own synthetic distribution; we own both sides.

Curation rules (guarded by tests/test_vocab_guards.py):
- no entry is an English word that appears in template carrier text;
- INITIALS / STATE_ABBRS / COUNTRY_CODES are mutually disjoint and
  exclude template acronyms (DOB, SSN, PSA, ...) and common 2-letter words.
"""

from __future__ import annotations

FIRST_NAMES: list[str] = [
    "marisol", "thaddeus", "yevgenia", "kofi", "ingrid", "rajesh", "svetlana",
    "olamide", "henrik", "xiulan", "tobias", "amara", "dmitri", "naoko",
    "cassius", "zelda", "orville", "priyanka", "ludmila", "ezekiel",
    "fernanda", "gunther", "halima", "iskander", "josefina", "klaus",
    "leopold", "mireille", "nikolai", "ophelia", "quentin", "rosalind",
    "santiago", "tatiana", "ulysses", "valentina", "wilhelm", "xiomara",
    "yusuf", "zbigniew", "anouk", "bartholomew", "cordelia", "demetrios",
    "eleonora", "fitzgerald", "giuseppina", "hrothgar", "ilse", "jerzy",
    "katarzyna", "lazlo", "magdalena", "nestor", "octavia", "pascual",
    "quiteria", "rutherford", "sigrid", "teodoro",
]

LAST_NAMES: list[str] = [
    "vexler", "okonkwo", "brandvold", "cziffra", "durnwald", "eastmure",
    "fairweather", "grimaldi", "hoefler", "ivanovich", "jarneski", "kowalczyk",
    "lindqvist", "marchetti", "novotny", "obradovic", "pellegrini", "quistgaard",
    "rybakov", "szczepanski", "tellefsen", "umezawa", "vandermeer", "wojciech",
    "xanthopoulos", "yamaguchi", "zielinski", "abernathy", "bjornstad",
    "castellanos", "dellacroce", "engelhardt", "fitzwilliam", "goldenberg",
    "hasselbeck", "iannucci", "jorgensen", "kristiansen", "lefebvre",
    "montgomery", "nakashima", "ostrowski", "palmerston", "quarterman",
    "rasmussen", "stoltenberg", "thorvaldsen", "underwood", "villanueva",
    "westergaard", "yablonski", "zimmermann", "ashworth", "blackwood",
    "carmichael", "drummond", "eriksson", "farnsworth", "galloway", "holloway",
]

ORG_SUFFIXES: list[str] = ["Inc", "LLC", "Ltd", "Group", "PLC", "Corp", "Labs", "Holdings"]

CITIES: list[str] = [
    "Bristleton", "Markovia", "Fennwick", "Ostergard", "Blumenthal",
    "Carraway", "Dunmore", "Eaglesham", "Farrowdale", "Gildenburg",
    "Harrowgate", "Inverkeith", "Jasperville", "Kendalwood", "Larkspur",
    "Montrose", "Netherfield", "Oakhampton", "Pemberley", "Quarrybrook",
    "Ravensworth", "Silverdale", "Thornbury", "Umberland", "Vanterpool",
    "Wexcombe", "Yarrowfield", "Zephyrhills", "Ashgrove", "Brockenhurst",
    "Cloverfield", "Drakenshire", "Elmsworth", "Foxborough", "Glenhaven",
    "Hollowbrook", "Ironbridge", "Juniperdale", "Kingsmere", "Lynnhaven",
]

STREET_NAMES_BASE: list[str] = [
    "Maplewood", "Oakridge", "Birchwood", "Cedarhurst", "Elmcrest",
    "Willowbend", "Ashford", "Briarcliff", "Chestnut", "Dogwood",
    "Evergreen", "Foxglove", "Hawthorne", "Ironwood", "Juniper",
    "Kingfisher", "Lakeshore", "Magnolia", "Nightingale", "Primrose",
]

STREET_TYPES: list[str] = ["Street", "Avenue", "Lane", "Road", "Boulevard", "Drive", "Court", "Terrace"]

COUNTRIES: list[str] = [
    "Freedonia", "Sylvania", "Borduria", "Latveria", "Genovia", "Zamunda",
    "Elbonia", "Krakozhia", "Molvania", "Petoria", "Kyrzbekistan",
    "Grand Fenwick", "San Theodoros", "Vulgaria", "Carpania", "Brungaria",
]

STATE_FULL: list[str] = [
    "Westmoreland", "Cascadia", "Alleghany", "Shenandoah", "Cumberland",
    "Piedmont", "Tidewater", "Ozarkia", "Chaparral", "Saguaro",
]

# Curated: no common English 2/3-letter words, no template acronyms
# (DOB SSN PSA DM ID EXP REF TIFU WTF ATTN), disjoint from INITIALS.
STATE_ABBRS: list[str] = ["KX", "ZV", "QW", "JV", "XK", "VZ", "WQ", "QJ", "ZX", "XQ"]
COUNTRY_CODES: list[str] = ["FD", "SV", "BD", "LV", "GV", "ZM", "EB", "KZ", "MV", "PT"]
INITIALS: list[str] = [
    "GRX", "PLV", "QTZ", "XVB", "ZKJ", "VXQ", "JQZ", "KVX",
    "GRLQ", "PXVZ", "QZKV", "XBJQ", "ZVQX", "VKJZ",
    "QX", "ZJ", "XV", "VQ", "KJ", "JX",
]

EMAIL_DOMAINS: list[str] = [
    # [ref: pii_synth/generation.py:359]
    "gmail.com", "yahoo.com", "outlook.com", "hotmail.com", "aol.com",
    "protonmail.com", "icloud.com",
]

# O-only carrier words for synthetic paragraphs (build_o_only_example analog,
# ref generation.py:831-840). Plain English; none collide with gazetteers.
CARRIER_WORDS: list[str] = [
    "the", "quick", "update", "about", "project", "meeting", "went", "well",
    "discussed", "new", "features", "deadline", "next", "week", "almost",
    "done", "presentation", "was", "good", "got", "positive", "feedback",
    "server", "not", "responding", "build", "version", "deployed",
    "successfully", "database", "query", "returned", "empty", "results",
    "weather", "today", "terrible", "staying", "inside", "finished",
    "homework", "finally", "free", "for", "weekend", "anyone", "know",
    "restaurant", "around", "here", "movie", "last", "night", "amazing",
    "figured", "out", "bug", "it", "typo", "tried", "yet", "need", "advice",
    "on", "situation", "and", "with", "that", "this", "they", "have", "from",
    "will", "team", "plan", "review", "branch", "merge", "release", "ticket",
    "status", "report", "draft", "notes", "summary", "agenda", "follow",
    "items", "action", "pending", "complete", "testing", "rollout",
]

# Org first-words (company() analog) — capitalized last names + a few coined.
ORG_WORDS: list[str] = [ln.capitalize() for ln in LAST_NAMES[:30]]


# Sets used by guard tests and the detector builder.
ALL_SHORT_UPPER = set(STATE_ABBRS) | set(COUNTRY_CODES) | set(INITIALS)
