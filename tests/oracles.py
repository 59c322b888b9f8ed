"""Oracles that more than one test module checks against."""

import numpy as np

from airsense.spconv import FeatureMap, KernelTensor, gather_conv


def reach_oracle(mask, k, stride=1, transposed=False):
    """Cells a k x k scatter from the masked cells reaches, by gathering with
    an all-ones kernel."""
    m = mask.astype(np.float32)[:, :, None]
    if transposed:
        up = np.zeros((m.shape[0] * stride, m.shape[1] * stride, 1), dtype=np.float32)
        up[::stride, ::stride] = m
        m, stride = up, 1
    ones = KernelTensor(np.ones((1, k, k, 1), dtype=np.float32))
    return gather_conv(FeatureMap(m), ones, stride).values[:, :, 0] > 0
