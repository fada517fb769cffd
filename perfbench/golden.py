"""Published answers the benchmark checks its results against.

Betti tables are transcribed row by row, ``{row r: {column i: beta}}``,
where beta is the graded Betti number beta_{i, r+i}.
"""

GOLDEN_ROWS = {
    "2:(3,1)": {
        0: {0: 1},
        4: {1: 3},
        8: {2: 3},
        9: {2: 3, 3: 4},
        10: {2: 13, 3: 46, 4: 68, 5: 56, 6: 28, 7: 8, 8: 1},
        11: {2: 33, 3: 132, 4: 218, 5: 192, 6: 96, 7: 26, 8: 3},
        12: {2: 1, 3: 2, 4: 1},
    },
    "2:(2,1,2)": {
        0: {0: 1},
        5: {1: 3},
        10: {2: 3},
        13: {2: 2, 3: 3},
        16: {2: 3, 3: 6, 4: 3},
        18: {2: 1, 3: 4, 4: 5, 5: 2},
        19: {2: 4, 3: 8, 4: 4},
        20: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
        21: {2: 2, 3: 8, 4: 10, 5: 4},
        22: {2: 6, 3: 14, 4: 11, 5: 4, 6: 1},
        23: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
        24: {2: 4, 3: 16, 4: 21, 5: 10, 6: 1},
        25: {2: 8, 3: 20, 4: 18, 5: 8, 6: 2},
        26: {2: 3, 3: 12, 4: 18, 5: 12, 6: 3},
        27: {2: 6, 3: 24, 4: 32, 5: 16, 6: 2},
        28: {2: 3, 3: 12, 4: 18, 5: 12, 6: 3},
        29: {2: 4, 3: 16, 4: 24, 5: 16, 6: 4},
        30: {2: 3, 3: 12, 4: 18, 5: 12, 6: 3},
        31: {2: 4, 3: 16, 4: 24, 5: 16, 6: 4},
        32: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
        33: {2: 4, 3: 16, 4: 24, 5: 16, 6: 4},
        34: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
        35: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
        36: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
        37: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
        38: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
        39: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
        41: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
    },
}

# Total Betti numbers per homological degree, pd and reg.
GOLDEN_TOTALS = {
    "mccullough(3,1,3)": {
        "totals": [1, 4, 53, 221, 432, 489, 345, 150, 37, 4],
        "pd": 9,
        "reg": 7,
    },
}

# Row counts of the two sweep calls: the default box and the verified box.
SWEEP_ROWS = {"pd": 255, "verify": 16}


def golden_entries(rows):
    """``{(i, j): beta}`` entries of a table given row by row."""
    return {(i, r + i): b for r, cols in rows.items() for i, b in cols.items()}


def caviglia_reg(d):
    """Regularity d^2 - 2 of the three-generator ideal of degree d."""
    return d * d - 2
