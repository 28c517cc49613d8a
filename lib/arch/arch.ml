type params = {
  rows : int;
  cols : int;
  slices_per_clb : int;
  luts_per_slice : int;
  lut_inputs : int;
  ch_singles : int;
  ch_doubles : int;
  ch_longs : int;
  cb_in_singles : int;
  cb_out_singles : int;
  pads_per_position : int;
  long_tap_period : int;
  frame_bits : int;
}

let xc2s200e =
  {
    rows = 28;
    cols = 42;
    slices_per_clb = 2;
    luts_per_slice = 2;
    lut_inputs = 4;
    ch_singles = 32;
    ch_doubles = 12;
    ch_longs = 2;
    cb_in_singles = 8;
    cb_out_singles = 6;
    pads_per_position = 1;
    long_tap_period = 4;
    frame_bits = 576;
  }

let small =
  {
    rows = 12;
    cols = 14;
    slices_per_clb = 2;
    luts_per_slice = 2;
    lut_inputs = 4;
    ch_singles = 14;
    ch_doubles = 6;
    ch_longs = 2;
    cb_in_singles = 5;
    cb_out_singles = 4;
    pads_per_position = 2;
    long_tap_period = 2;
    frame_bits = 576;
  }

let bels_per_tile p = p.slices_per_clb * p.luts_per_slice
let num_tiles p = p.rows * p.cols
let num_bels p = num_tiles p * bels_per_tile p

let scaled p ~rows ~cols = { p with rows; cols }
