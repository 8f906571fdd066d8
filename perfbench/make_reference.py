"""Write reference.json: each a = 8 maximal table code moved onto its canonical form.

classify32-a8 proves its maximal classes equivalent to these table codes
through the stored rows and witness, without a canonical search on the
table codes in every job.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json

import fourweight as fw
from workloads import REFERENCE, Classify32A8, permuted_rows

reference = {}
for cid in Classify32A8.MAXIMAL:
    code = fw.load_code(cid)
    witness = list(fw.canonical_form(code).witness)
    reference[cid] = {"witness": witness, "rows": list(permuted_rows(code, witness))}
lines = [f"  {json.dumps(cid)}: {json.dumps(entry)}" for cid, entry in reference.items()]
REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
