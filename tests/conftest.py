from blas_kernel import kernel_line


def pytest_report_header(config):
    return kernel_line()
