"""The sign-table text format: one line per vector, `+ <bits>` or
`- <bits>`, with 0 standing for -1.  The `signs` command prints its
tables in it and `signs --verify` re-adds them as printed.
"""

from .core import bits_to_vector, vector_to_bits


def parse_sign_table(text):
    """Parse `+ <bits>` / `- <bits>` lines into (sign, vector) pairs."""
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        sign_ch, bits = ln.split()
        if sign_ch not in "+-":
            raise ValueError("bad sign marker %r" % sign_ch)
        rows.append((1 if sign_ch == "+" else -1, bits_to_vector(bits)))
    return rows


def format_sign_table(rows):
    lines = ["%s %s" % ("+" if s == 1 else "-", vector_to_bits(v))
             for s, v in rows]
    return "\n".join(lines) + "\n"
