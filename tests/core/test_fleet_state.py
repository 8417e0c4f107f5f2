"""FleetView over shared memory at planner scale (K >= 10^4).

The hierarchical fan-out's result arena is a shared-memory segment
(:func:`repro.core.kernel.new_segment`) read and written through
zero-copy :class:`~repro.core.kernel.FleetView` columns at tens of
thousands of rows, so this suite pins that mapping at that scale —
exact float64 round-trips, the column order and strides the views rely
on, and a Hypothesis property over the admitted/departed row masks the
serving layer actually stores in these columns.
"""

from __future__ import annotations

import math
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.serve.hierarchy import SESSION_COLUMNS

K = 10_000


class TestLargeFleetRoundTrip:
    def test_round_trip_is_exact_at_ten_thousand_rows(self, shm_round_trip):
        columns = {
            name: [
                # Awkward float64 values: negatives, tiny magnitudes,
                # and fractions with no short decimal form.
                (index * 0.1 + offset) * (-1.0 if index % 7 == 0 else 1.0) / 3.0
                for index in range(K)
            ]
            for offset, name in enumerate(SESSION_COLUMNS)
        }
        assert shm_round_trip(columns) == columns

    def test_column_order_is_pinned(self):
        # The zero-copy views address columns by their position in the
        # names tuple; a view that reordered them would silently corrupt
        # every mapped fleet.
        rows = 3
        segment = kernel.new_segment(8 * rows * len(SESSION_COLUMNS))
        try:
            with kernel.FleetView(segment.buf, SESSION_COLUMNS, rows) as view:
                assert view.names == SESSION_COLUMNS
                for position, name in enumerate(SESSION_COLUMNS):
                    view.column(name)[:] = array("d", [float(position)] * rows)
            raw = array("d", bytes(segment.buf[: 8 * rows * len(SESSION_COLUMNS)]))
        finally:
            segment.close()
            segment.unlink()
        assert list(raw) == [
            float(position)
            for position in range(len(SESSION_COLUMNS))
            for _ in range(rows)
        ]

    def test_view_strides_match_state_layout(self):
        rows = 4096
        columns = {
            name: [float(offset * rows + index) for index in range(rows)]
            for offset, name in enumerate(SESSION_COLUMNS)
        }
        # Column-major at a stride of ``rows`` doubles: the arena layout.
        payload = array(
            "d", [value for name in SESSION_COLUMNS for value in columns[name]]
        ).tobytes()
        segment = kernel.new_segment(len(payload))
        try:
            segment.buf[:len(payload)] = payload
            with kernel.FleetView(segment.buf, SESSION_COLUMNS, rows) as view:
                for name in SESSION_COLUMNS:
                    column = view.column(name)
                    assert column[0] == columns[name][0]
                    assert column[rows - 1] == columns[name][rows - 1]
                mapped = {name: list(view.column(name)) for name in view.names}
        finally:
            segment.close()
            segment.unlink()
        assert mapped == columns


@st.composite
def masked_fleets(draw):
    """A fleet's admitted/departed masks plus value columns, SoA style."""
    rows = draw(st.integers(min_value=1, max_value=512))
    mask_bits = st.lists(
        st.booleans(), min_size=rows, max_size=rows
    )
    admitted = draw(mask_bits)
    departed = draw(mask_bits)
    values = draw(
        st.lists(
            st.floats(
                allow_nan=False,
                allow_infinity=False,
                min_value=-1e12,
                max_value=1e12,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
    return {
        "admitted": [1.0 if bit else 0.0 for bit in admitted],
        "departed": [1.0 if bit else 0.0 for bit in departed],
        "share_bps": values,
    }


class TestMaskProperty:
    @given(columns=masked_fleets())
    @settings(max_examples=50, deadline=None)
    def test_masks_survive_the_shared_copy(self, columns, shm_round_trip):
        copied = shm_round_trip(columns)
        assert copied == columns
        # Masks must stay exactly 0.0/1.0 — a transport that nudged one
        # would silently flip a session's admitted/departed status.
        for name in ("admitted", "departed"):
            assert set(copied[name]) <= {0.0, 1.0}
        assert all(math.isfinite(value) for value in copied["share_bps"])
